"""Per-round communication and latency arithmetic, no training involved.

Walks the exact cost model: bytes each training method moves in one round,
the quotients between methods, and how transfer time dominates the round
once the link slows down.
"""

from sflsim import models, netsim

SETTING = dict(samples_per_device=10_000, devices=5, batch_size=100)


def cost_table(spec_name):
    spec = models.ZOO[spec_name]
    facts = models.analyze(spec)
    print(f"\n{spec_name}: {facts.total_params:,} params, "
          f"device side {facts.device_params:,}, "
          f"activation {facts.activation_elements} elements/sample")
    print(f"{'method':<14} {'up/device':>14} {'down/device':>14} {'total GiB':>10}")
    for method in netsim.METHODS:
        report = netsim.comm_bytes_per_round(method, spec, **SETTING)
        print(f"{method:<14} {report.per_device_up:>14,} "
              f"{report.per_device_down:>14,} {report.gib:>10.5f}")


def main():
    print("one-round communication at the reference setting "
          f"({SETTING['devices']} devices x {SETTING['samples_per_device']} "
          f"samples, batch {SETTING['batch_size']})")
    for name in ("vgg11", "resnet9", "tiny_vgg"):
        cost_table(name)

    spec = models.ZOO["vgg11"]
    print("\nhow much cheaper the cached-activation method is, exact quotients:")
    for other in ("classic", "split", "local_loss"):
        ratio = netsim.cost_ratio(other, "replay_tx", spec, **SETTING)
        print(f"  {other:<12} / replay_tx = {ratio:.4f}x")

    print("\nround latency by link profile (same round, same compute):")
    n_k = SETTING["samples_per_device"]
    traffic = {}
    compute = {}
    for mode, method in (("split", "split"), ("replay", "replay_tx")):
        report = netsim.comm_bytes_per_round(method, spec, **SETTING)
        traffic[mode] = {
            k: (report.per_device_up, report.per_device_down)
            for k in range(SETTING["devices"])
        }
        compute[mode] = netsim.computation_units(
            method, spec, samples_per_device=n_k
        )
    print(f"{'profile':<8} {'split round s':>14} {'comm share':>11} "
          f"{'replay round s':>15}")
    for name, profile in netsim.PROFILES.items():
        split_lat = netsim.round_latency(
            traffic["split"], compute["split"], profile, 1e9, 1e10
        )
        replay_lat = netsim.round_latency(
            traffic["replay"], compute["replay"], profile, 1e9, 1e10
        )
        print(f"{name:<8} {split_lat.round_latency_s:>14.2f} "
              f"{split_lat.comm_share:>11.3f} "
              f"{replay_lat.round_latency_s:>15.2f}")
    print("\nthe slower the link, the larger the share of the round spent "
          "moving bytes - and the more the cached-activation method saves.")


if __name__ == "__main__":
    main()
