#!/usr/bin/env python3
"""Statistics of an alternating A/B benchmark run (see scripts/ab.sh).

    scripts/ab_stats.py report <runs.jsonl> <BENCHMARK.json>
    scripts/ab_stats.py test

`runs.jsonl` holds one JSON object per perfbench run:
`{"pair": i, "side": "base" | "head", "seed": s, "result": {...}}`, where
`result` is perfbench's last output line, whose `metrics` map each name
to `{"value": v, "unit": u}`. For every metric `report` prints
both medians, the pairs the head won (ties count for neither side), the
base's quartiles and IQR, the IQR as a share of the base median, the
min–max head/base pair ratio and the per-pair values as `base/head`.
Quartiles interpolate linearly between order statistics (numpy's default).
A metric missing from BENCHMARK.json counts as lower-is-better.
"""

import json
import sys
import unittest


def quantile(xs, q):
    """The `q` quantile of `xs`, interpolating between order statistics."""
    s = sorted(xs)
    if not s:
        raise ValueError("quantile of no values")
    at = q * (len(s) - 1)
    lo = int(at)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (at - lo)


def summarize(base, head, higher_is_better):
    """Compare paired samples: `base[i]` and `head[i]` ran as pair `i`."""
    if len(base) != len(head) or not base:
        raise ValueError("need the same, non-zero number of base and head values")
    q1, med, q3 = (quantile(base, q) for q in (0.25, 0.5, 0.75))
    if higher_is_better:
        wins = sum(h > b for b, h in zip(base, head))
    else:
        wins = sum(h < b for b, h in zip(base, head))
    ratios = [h / b for b, h in zip(base, head) if b != 0]
    return {
        "base_median": med,
        "head_median": quantile(head, 0.5),
        "wins": wins,
        "pairs": len(base),
        "base_q1": q1,
        "base_q3": q3,
        "base_iqr": q3 - q1,
        "iqr_share": (q3 - q1) / med if med else float("nan"),
        "ratio_min": min(ratios) if ratios else float("nan"),
        "ratio_max": max(ratios) if ratios else float("nan"),
    }


def pairs_of(runs):
    """Group runs into `(seed, base result, head result)` by pair index."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    out = []
    for i in sorted(by_pair):
        sides = by_pair[i]
        if set(sides) != {"base", "head"}:
            raise ValueError(f"pair {i} lacks a side: {sorted(sides)}")
        out.append((sides["base"]["seed"], sides["base"]["result"], sides["head"]["result"]))
    return out


def fmt(v):
    return f"{v:.4g}" if abs(v) < 1e4 else f"{v:.0f}"


def report(runs, directions):
    """The report's lines for `runs` (see the module doc)."""
    pairs = pairs_of(runs)
    names = []
    for _, b, _ in pairs:
        names += [n for n in b["metrics"] if n not in names]
    seeds = [s for s, _, _ in pairs]
    lines = [f"{len(pairs)} pairs, seeds {seeds[0]}–{seeds[-1]}"]
    for name in names:
        base = [b["metrics"][name]["value"] for _, b, _ in pairs]
        head = [h["metrics"][name]["value"] for _, _, h in pairs]
        higher = directions.get(name) == "higher"
        s = summarize(base, head, higher)
        change = (s["head_median"] / s["base_median"] - 1) * 100 if s["base_median"] else 0.0
        lines.append(
            f"{name} ({'higher' if higher else 'lower'} is better): "
            f"{fmt(s['base_median'])} -> {fmt(s['head_median'])} ({change:+.1f}%), "
            f"head won {s['wins']}/{s['pairs']}; base quartiles {fmt(s['base_q1'])}–"
            f"{fmt(s['base_q3'])} (IQR {fmt(s['base_iqr'])}, {s['iqr_share'] * 100:.1f}% of "
            f"median); pair ratio {s['ratio_min']:.3f}–{s['ratio_max']:.3f}"
        )
        lines.append("  per pair: " + ", ".join(f"{fmt(b)}/{fmt(h)}" for b, h in zip(base, head)))
    return lines


class StatsTest(unittest.TestCase):
    def test_quantiles_interpolate(self):
        xs = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(quantile(xs, 0.5), 2.5)
        self.assertEqual(quantile(xs, 0.25), 1.75)
        self.assertEqual(quantile(xs, 0.75), 3.25)
        self.assertEqual(quantile([7.0], 0.25), 7.0)
        self.assertEqual(quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.75), 4.0)

    def test_wins_follow_the_direction_and_ties_count_for_neither(self):
        base = [1.0, 2.0, 3.0, 4.0]
        head = [0.5, 2.0, 3.5, 3.0]
        self.assertEqual(summarize(base, head, higher_is_better=False)["wins"], 2)
        self.assertEqual(summarize(base, head, higher_is_better=True)["wins"], 1)

    def test_summary_of_fixed_pairs(self):
        s = summarize([10.0, 12.0, 11.0, 13.0, 9.0], [8.0, 9.0, 9.0, 10.0, 6.0], False)
        self.assertEqual((s["base_median"], s["head_median"]), (11.0, 9.0))
        self.assertEqual((s["base_q1"], s["base_q3"], s["base_iqr"]), (10.0, 12.0, 2.0))
        self.assertAlmostEqual(s["iqr_share"], 2.0 / 11.0)
        self.assertEqual((s["wins"], s["pairs"]), (5, 5))
        self.assertAlmostEqual(s["ratio_min"], 6.0 / 9.0)
        self.assertAlmostEqual(s["ratio_max"], 9.0 / 11.0)

    def test_mismatched_samples_are_refused(self):
        with self.assertRaises(ValueError):
            summarize([1.0], [1.0, 2.0], True)
        with self.assertRaises(ValueError):
            summarize([], [], True)

    def test_report_pairs_runs_by_index_in_any_order(self):
        def run(pair, side, seed, v):
            metrics = {"ops_s": {"value": v, "unit": "1/s"}}
            return {"pair": pair, "side": side, "seed": seed, "result": {"metrics": metrics}}

        runs = [run(1, "head", 8, 30.0), run(0, "base", 7, 10.0), run(1, "base", 8, 20.0),
                run(0, "head", 7, 12.0)]
        lines = report(runs, {"ops_s": "higher"})
        self.assertEqual(lines[0], "2 pairs, seeds 7–8")
        self.assertIn("15 -> 21 (+40.0%), head won 2/2", lines[1])
        self.assertEqual(lines[2], "  per pair: 10/12, 20/30")
        with self.assertRaises(ValueError):
            report(runs[:3], {})


def main(argv):
    if len(argv) == 2 and argv[1] == "test":
        unittest.main(argv=[argv[0]], verbosity=1)
    if len(argv) != 4 or argv[1] != "report":
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[2]) as fh:
        runs = [json.loads(line) for line in fh if line.strip()]
    with open(argv[3]) as fh:
        bench = json.load(fh)
    directions = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    print("\n".join(report(runs, directions)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
