"""Drive the command-line pipeline end to end in a temporary directory.

prep -> train -> generate -> evaluate -> analyze, then print the artifacts;
the directory is removed when the walkthrough ends.

Run with: python3 demos/06_full_pipeline.py
"""

import tempfile
from pathlib import Path

from ckl.cli import main
from ckl.synthetic import retrieval_corpus, write_jsonl

with tempfile.TemporaryDirectory(prefix="ckl_demo_") as name:
    tmp = Path(name)
    print("working in", tmp)

    data = tmp / "data.jsonl"
    write_jsonl(data, retrieval_corpus(n=60, n_knowledge=3, seed=6))
    config = tmp / "run.cfg"
    config.write_text(
        "d_model=32\nn_heads=2\nn_encoder_layers=1\nn_decoder_layers=1\nd_ff=64\n"
        "max_source_len=48\nmax_target_len=12\ntop_n=1\n"
        "learning_rate=0.003\nepochs=12\nbatch_size=20\nseed=0\n"
    )

    steps = [
        ["prep", "--data", str(data), "--out", str(tmp / "prep"), "--config", str(config)],
        [
            "train",
            "--data", str(data),
            "--vocab", str(tmp / "prep" / "vocab.txt"),
            "--out", str(tmp / "train"),
            "--config", str(config),
        ],
        [
            "generate",
            "--data", str(data),
            "--vocab", str(tmp / "prep" / "vocab.txt"),
            "--checkpoint", str(tmp / "train" / "checkpoint.ckpt"),
            "--out", str(tmp / "gen"),
            "--config", str(config),
        ],
        [
            "evaluate",
            "--generations", str(tmp / "gen" / "generations.jsonl"),
            "--data", str(data),
            "--out", str(tmp / "eval"),
        ],
        [
            "analyze",
            "--generations", str(tmp / "gen" / "generations.jsonl"),
            "--data", str(data),
            "--out", str(tmp / "analysis"),
            "--top-n", "1",
        ],
    ]
    for argv in steps:
        print(f"\n$ ckl {' '.join(argv)}")
        code = main(argv)
        assert code == 0, f"exit code {code}"

    print("\n== metrics.csv ==")
    print((tmp / "eval" / "metrics.csv").read_text())
    print("== analysis.csv (first rows) ==")
    print("\n".join((tmp / "analysis" / "analysis.csv").read_text().splitlines()[:8]))
