"""Parameter and FLOP accounting for the preset family.

Counts are exact closed forms of the architecture config (1 MAC = 1 FLOP;
matmuls, windowed mixing, and stems; elementwise excluded), so no model is
built, and are checked against the reference budgets the presets are sized
to, at +/-10%.

Run: python demos/04_accounting.py
"""

from wavemlp.model import REFERENCE_BUDGETS, count_flops, count_params, preset

print(f"{'preset':>7} {'params':>12} {'ref':>7} {'dev':>7}   {'flops@224':>13} {'ref':>7} {'dev':>7}")
for name in ["T*", "T", "S", "M", "B"]:
    cfg = preset(name)
    n_params = count_params(cfg)
    n_flops = count_flops(cfg, 224, 224)
    ref_p, ref_f = REFERENCE_BUDGETS[name]
    print(
        f"{name:>7} {n_params:>12,} {ref_p/1e6:>6.0f}M {100*(n_params-ref_p)/ref_p:>+6.1f}% "
        f"  {n_flops:>13,} {ref_f/1e9:>6.1f}G {100*(n_flops-ref_f)/ref_f:>+6.1f}%"
    )

print()
cfg = preset("tiny")
print("tiny config:", count_params(cfg), "params;",
      count_flops(cfg, 8, 8), "MACs at 8x8;",
      count_flops(cfg, 16, 16), "MACs at 16x16")
print("FLOPs scale with token count; parameters do not move with resolution.")
