"""Actual bitstreams: the entropy tables made real with a range coder.

Builds a static 16-bit-frequency model per paradigm, encodes a sampled
pixel stream, decodes it back, and compares measured bits/symbol with
the model's conditional entropy. The bottleneck effect from the sweep
demo shows up here as real bytes.

Run:  python3 demos/codec_demo.py
"""

from crlab import (
    PARADIGMS,
    PixelModelParams,
    build_model,
    decode,
    encode,
    entropy_report,
    measure_rate,
    sample_pairs,
)

M, n, seed = 256, 50000, 7

print(f"M={M}, n={n} symbols per stream\n")
print("p     Q   paradigm                 H (bits)  measured  overhead")

for p, Q in [(0.25, 2), (0.25, 1), (1.0, 1)]:
    params = PixelModelParams(p=p, Q=Q, M=M)
    rep = entropy_report(params)
    pairs = sample_pairs(params, n, seed)
    xp_seq = [xp for _, xp in pairs]
    x_seq = [x for x, _ in pairs]
    for row in PARADIGMS:
        if row.byte is None:
            continue
        paradigm, h = row.name, getattr(rep, row.bound)
        model = build_model(params, paradigm)
        stream = encode(pairs, paradigm, model)
        assert decode(stream, xp_seq, model) == x_seq, "round trip broke"
        rate = measure_rate(stream)
        print(f"{p:<5g} {Q:<3g} {paradigm:<24} {h:>8.4f}  {rate:>8.4f}"
              f"  {rate - h:>+8.4f}")
    print()

print("Reading the table:")
print(" * every stream decoded back exactly; overhead is frequency")
print("   quantization plus the coder flush, a few millibits at this n.")
print(" * at (p=0.25, Q=2) the conditional coder really does ship more")
print("   bits than the plain residual coder: the bottleneck effect,")
print("   end to end in a working codec.")
print(" * the conditional-residual stream is never the largest one.")
