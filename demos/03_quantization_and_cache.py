"""The 8-bit activation codec and the server-side activation cache.

Shows the affine quantizer's round-trip error against its guaranteed bound,
the exact wire layout of one record, and how the cache answers on rounds
when nothing was transmitted.
"""

import numpy as np

from sflsim import buffer, netsim, quantize


def main():
    rng = np.random.default_rng(7)
    a = rng.normal(0.0, 2.5, size=(16, 8, 4, 4)).astype(np.float32)
    labels = rng.integers(0, 2, size=16).astype(np.uint16)

    record = quantize.encode(
        a, round_tag=0, device_id=0, batch_index=0, labels=labels
    )
    back = quantize.decode(record)
    err = float(np.max(np.abs(back - a)))
    bound = record.scale / 2 + float(np.spacing(np.abs(a).max()))
    print(f"tensor {a.shape}, range [{a.min():.3f}, {a.max():.3f}]")
    print(f"scale {record.scale:.6f}, zero point at min {record.min_val:.6f}")
    print(f"max round-trip error {err:.6f} <= guaranteed {bound:.6f}")

    blob = quantize.serialize(record)
    predicted = netsim.record_bytes(
        batch=16, act_elements=8 * 4 * 4, rank=4, quantized=True
    )
    print(f"\nwire size {len(blob)} bytes (cost model predicts {predicted}): "
          f"header + {len(labels)} u16 labels + {a.size} uint8 codes")
    again = quantize.parse(blob)
    print("survives serialize/parse bit-exactly: "
          f"{np.array_equal(again.payload, record.payload)}")

    raw_size = netsim.record_bytes(
        batch=16, act_elements=8 * 4 * 4, rank=4, quantized=False
    )
    print(f"the same tensor unquantized would cost {raw_size} bytes "
          "(4-byte floats, same header); the raw codec is a bit-exact "
          "passthrough used when quantization is switched off")

    cache = buffer.ReplayBuffer(period=3)
    cache.store(record)
    print(f"\ncache with period 3 holds {len(cache)} record, "
          f"{cache.total_bytes()} wire bytes")
    for t in range(7):
        on = buffer.switch_is_on(t, 3)
        fetched = cache.fetch(device_id=0, batch_index=0)
        same = np.array_equal(quantize.decode(fetched), back)
        source = "fresh transmission" if on else "served from cache"
        print(f"  t={t}: switch {'on ' if on else 'off'} -> {source:<18} "
              f"(bytes identical: {same})")

    try:
        cache.fetch(device_id=1, batch_index=0)
    except buffer.BufferMiss as exc:
        print(f"\na device that never transmitted raises: {exc}")

    try:
        late = quantize.encode(a, round_tag=1, device_id=0, batch_index=0)
        cache.store(late)
    except buffer.BufferError as exc:
        print(f"storing while the switch is off raises: {exc}")


if __name__ == "__main__":
    main()
