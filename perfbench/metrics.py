"""Names and units of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root declares the same lists with their
bounds; ``test_smoke.py`` checks that the two agree.
"""

STAGES = 4

# (name, unit): reported by every untraced run, for every workload.
END_TO_END = (
    ("setup_s", "s"),
    ("iter_ms_p50", "ms"),
    ("iter_ms_tail", "ms"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

# Layers whose self time is split into forward and backward.
SPLIT_LAYERS = (
    "model.stem",
    "model.head",
    "blocks.norm",
    "blocks.token_mixing",
    "blocks.direct_fc",
    "blocks.channel_mlp",
    "patm.amplitude",
    "patm.phase",
    "patm.modulate",
    "patm.mix",
    "patm.out_fc",
)

# Layers reported as one self time, forward and backward together.
WHOLE_LAYERS = (
    "tensor.backward",
    "model.build",
    "model.count",
    "train.loop",
    "train.loss",
    "train.adamw",
    "train.eval",
    "synth.dataset",
    "cli.count",
    "trace.harness",
)

# Layers whose tape records and their output bytes are reported per taped step.
TAPED_LAYERS = ("blocks.norm", "blocks.channel_mlp", "patm.mix")


def _per_layer():
    out = [("tensor.tape_records", "count"), ("tensor.tape_bytes", "B")]
    for layer in SPLIT_LAYERS:
        out += [(f"{layer}.fwd_s", "s"), (f"{layer}.bwd_s", "s")]
    for layer in WHOLE_LAYERS:
        out.append((f"{layer}_s", "s"))
    for layer in TAPED_LAYERS:
        out += [(f"{layer}.tape_records", "count"), (f"{layer}.tape_bytes", "B")]
    for i in range(STAGES):
        out += [
            (f"model.stage{i}.fwd_s", "s"),
            (f"model.stage{i}.bwd_s", "s"),
            (f"model.stage{i}.gmac_per_s", "GMAC/s"),
        ]
    out += [
        ("model.macs", "count"),
        ("model.gmac_per_s", "GMAC/s"),
        ("patm.mix.gmac_per_s", "GMAC/s"),
        ("trace.untraced_ms", "ms"),
        ("trace.traced_ms", "ms"),
        ("trace.overhead_ms", "ms"),
        ("trace.self_sum_ms", "ms"),
        ("trace.absent_names", "count"),
    ]
    return tuple(out)


# (name, unit): reported by every traced run, for every workload.
PER_LAYER = _per_layer()
