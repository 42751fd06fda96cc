#!/usr/bin/env python3
"""Checks the figures EXPERIMENTS.md quotes from the committed BENCH_*.json
artifacts against those artifacts, rounded as printed.

Run: python3 -B tests/tools/experiments_figures_test.py (ctest runs it as
ExperimentsFiguresTest).
"""

import json
import os
import re
import unittest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")

T2 = "BENCH_table2_frameworks_tpu.json"
T3 = "BENCH_table3_gpu_resnet56.json"

# Artifact fields: (artifact, row label, field in the row's counters or
# values).
T2_JAX = (T2, "framework/jax+flax", "throughput_ex_per_s")
T2_TF = (T2, "framework/tensorflow", "throughput_ex_per_s")
T2_S4TF = (T2, "framework/swift-for-tensorflow", "throughput_ex_per_s")
T3_PYTORCH = (T3, "framework/pytorch-like", "throughput_ex_per_s")
T3_TF = (T3, "framework/tensorflow-like", "throughput_ex_per_s")
T3_EAGER = (T3, "framework/s4tf-eager", "throughput_ex_per_s")
T3_LAZY = (T3, "framework/s4tf-lazytensor", "throughput_ex_per_s")
T3_STEP = (T3, "step_program")

# Every quoted figure: (section heading prefix, template, quoted values).
# The template is the section's text with each figure replaced by {}; a
# run of whitespace matches any run of whitespace. Each quoted value is an
# artifact field, or a pair of fields whose ratio the figure prints.
FIGURES = [
    ("## Table 2", "| JAX + Flax | 21 258 | {} |", [T2_JAX]),
    ("## Table 2", "| TensorFlow | 33 118 | {} |", [T2_TF]),
    ("## Table 2", "| Swift for TensorFlow | 20 015 | {} |", [T2_S4TF]),
    ("## Table 2", "Measured = {} : {} : {}.",
     [(T2_TF, T2_JAX), (T2_JAX, T2_JAX), (T2_S4TF, T2_JAX)]),
    ("## Table 3", "| PyTorch | 2462 | {} |", [T3_PYTORCH]),
    ("## Table 3", "| TensorFlow | 2390 | {} |", [T3_TF]),
    ("## Table 3", "| S4TF (eager) | 730 | {} |", [T3_EAGER]),
    ("## Table 3", "| S4TF (LazyTensor) | 1827 | {} |", [T3_LAZY]),
    ("## Table 3", "Measured: {} / {} / {} / {}.",
     [(T3_PYTORCH, T3_PYTORCH), (T3_TF, T3_PYTORCH),
      (T3_EAGER, T3_PYTORCH), (T3_LAZY, T3_PYTORCH)]),
    ("## Table 3",
     "({} recorded ops → {} HLO instructions → {} fused kernels)",
     [T3_STEP + ("step.trace_ops",), T3_STEP + ("step.hlo_instructions",),
      T3_STEP + ("step.fused_kernels",)]),
]

# A printed figure: digits in groups of three split by spaces, or a plain
# number with an optional fraction.
NUMBER = r"(\d{1,3}(?: \d{3})+|\d+(?:\.\d+)?)"


def section(text, heading):
    start = text.index("\n" + heading) + 1
    end = text.find("\n## ", start)
    return text[start:] if end < 0 else text[start:end]


def normalized(text):
    return " ".join(text.split())


def template_regex(template):
    return NUMBER.join(
        re.escape(piece) for piece in normalized(template).split("{}"))


def field_value(artifacts, ref):
    name, label, field = ref
    if name not in artifacts:
        with open(os.path.join(ROOT, name)) as f:
            artifacts[name] = json.load(f)
    rows = [row for row in artifacts[name]["rows"] if row["label"] == label]
    if len(rows) != 1:
        raise KeyError(f"{name}: {len(rows)} rows labelled {label}")
    for group in ("counters", "values"):
        if field in rows[0].get(group, {}):
            return rows[0][group][field]
    raise KeyError(f"{name}: row {label} has no field {field}")


def quoted_value(artifacts, quoted):
    if isinstance(quoted[0], tuple):
        return field_value(artifacts, quoted[0]) / field_value(
            artifacts, quoted[1])
    return field_value(artifacts, quoted)


def as_printed(value, figure):
    """`value` rounded and grouped the way `figure` is printed."""
    text = f"{value:,.{len(figure.partition('.')[2])}f}"
    return text.replace(",", " " if " " in figure else "")


class ExperimentsFiguresTest(unittest.TestCase):

    def test_quoted_figures_match_their_artifacts(self):
        with open(os.path.join(ROOT, "EXPERIMENTS.md")) as f:
            text = f.read()
        artifacts = {}
        for heading, template, quoted in FIGURES:
            with self.subTest(template=template):
                match = re.search(template_regex(template),
                                  normalized(section(text, heading)))
                self.assertIsNotNone(
                    match, f"{heading}: no text matches {template!r}")
                self.assertEqual(len(match.groups()), len(quoted))
                for figure, ref in zip(match.groups(), quoted):
                    self.assertEqual(
                        figure, as_printed(quoted_value(artifacts, ref),
                                           figure),
                        f"{heading}: {template!r} quotes {figure} for {ref}")


if __name__ == "__main__":
    unittest.main()
