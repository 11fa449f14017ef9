"""BENCH_pipeline.json's last entry holds the counts of the tree it ships in."""

import json

import bench_counts


def test_last_entry_matches_a_fresh_count():
    # the counts repeat exactly, so a change that moves one must record it:
    # python tools/bench_counts.py --label "..."
    entries = json.loads(bench_counts.BENCH_FILE.read_text())["entries"]
    assert entries[-1]["counts"] == bench_counts.counts()


def test_record_replaces_an_entry_by_label():
    entries = [{"label": "a", "counts": 1}, {"label": "b", "counts": 2}]
    out = bench_counts.record(entries, "a", 3)
    assert [(e["label"], e["counts"]) for e in out] == [("a", 3), ("b", 2)]
    out = bench_counts.record(out, "c", 4)
    assert [e["label"] for e in out] == ["a", "b", "c"]
