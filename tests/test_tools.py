"""Unit tests for the repo's CLI tooling (``tools/`` is not a package).

Covers ``tools/check_doc_links.py`` (GitHub anchor slugification, duplicate
anchor suffixing, broken relative-link and fragment detection),
``tools/analyze.py``'s corpus smoke gate, ``tools/fuzz.py``'s CLI entry
points (generate, corpus replay, and the replay regression on a planted bad
corpus entry), and how ``tools/ab.py`` summarizes paired runs.
"""

import importlib.util
import json
import platform
import sys
from pathlib import Path

import pytest

TOOLS_DIR = Path(__file__).resolve().parent.parent / "tools"


def _load_tool(name):
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


doc_links = _load_tool("check_doc_links")
analyze = _load_tool("analyze")
fuzz_cli = _load_tool("fuzz")
ab = _load_tool("ab")


# ---------------------------------------------------------------------------
# check_doc_links: slugification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    ("heading", "slug"),
    [
        ("Simple Heading", "simple-heading"),
        ("Already-dashed heading", "already-dashed-heading"),
        ("Punctuation, stripped! (really?)", "punctuation-stripped-really"),
        ("`code` and **bold** and *em*", "code-and-bold-and-em"),
        ("[link text](https://example.com) kept", "link-text-kept"),
        ("Mixed CASE 123", "mixed-case-123"),
        ("snake_case_stays", "snakecasestays"),  # underscores are markup chars
        ("non&alpha%chars", "nonalphachars"),
    ],
)
def test_github_slug(heading, slug):
    assert doc_links.github_slug(heading) == slug


def test_anchors_of_suffixes_duplicate_slugs():
    text = "# Setup\n\n## Setup\n\ntext\n\n### Setup\n\n## Other\n"
    assert doc_links.anchors_of(text) == {"setup", "setup-1", "setup-2", "other"}


def test_anchors_of_ignores_fenced_code_and_keeps_html_anchors():
    text = (
        "# Real Heading\n\n"
        "```bash\n# not a heading, just a comment\n```\n\n"
        '<a name="explicit-anchor"></a>\n<a id="explicit-id">x</a>\n'
    )
    anchors = doc_links.anchors_of(text)
    assert anchors == {"real-heading", "explicit-anchor", "explicit-id"}


# ---------------------------------------------------------------------------
# check_doc_links: broken-link detection over a temporary docs tree
# ---------------------------------------------------------------------------


@pytest.fixture()
def docs_tree(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "guide.md").write_text(
        "# Guide\n\n## Deep Dive\n\nBack to [index](../index.md#top-level).\n",
        encoding="utf-8",
    )
    (tmp_path / "index.md").write_text(
        "# Top Level\n\n"
        "Good: [guide](docs/guide.md), [section](docs/guide.md#deep-dive),\n"
        "[self](#top-level), [external](https://example.com/x#y),\n"
        "[mail](mailto:a@b.c), [data file](data.txt).\n",
        encoding="utf-8",
    )
    (tmp_path / "data.txt").write_text("not markdown\n", encoding="utf-8")
    return tmp_path


def test_broken_links_passes_a_clean_tree(docs_tree):
    cache = {}
    assert doc_links.broken_links(docs_tree / "index.md", cache) == []
    assert doc_links.broken_links(docs_tree / "docs" / "guide.md", cache) == []


def test_broken_links_detects_a_missing_relative_target(docs_tree):
    page = docs_tree / "missing.md"
    page.write_text("[gone](no/such/file.md)\n", encoding="utf-8")
    broken = doc_links.broken_links(page, {})
    assert len(broken) == 1
    target, reason = broken[0]
    assert target == "no/such/file.md"
    assert reason.startswith("missing file ")


def test_broken_links_detects_a_missing_fragment(docs_tree):
    page = docs_tree / "frag.md"
    page.write_text(
        "# Frag\n\n[bad cross](docs/guide.md#nope) and [bad self](#missing).\n",
        encoding="utf-8",
    )
    broken = doc_links.broken_links(page, {})
    assert {target for target, _reason in broken} == {"docs/guide.md#nope", "#missing"}
    assert all("no heading for #" in reason for _target, reason in broken)


def test_broken_links_skips_links_inside_code_fences(docs_tree):
    page = docs_tree / "fenced.md"
    page.write_text("```\n[fake](not/checked.md)\n```\n", encoding="utf-8")
    assert doc_links.broken_links(page, {}) == []


def test_main_exit_codes(docs_tree, capsys):
    assert doc_links.main([str(docs_tree)]) == 0
    (docs_tree / "broken.md").write_text("[gone](missing.md)\n", encoding="utf-8")
    assert doc_links.main([str(docs_tree)]) == 1
    assert "BROKEN LINK" in capsys.readouterr().err
    assert doc_links.main([]) == 2  # usage error


def test_markdown_files_walks_directories_recursively(docs_tree):
    files = doc_links.markdown_files([str(docs_tree / "docs"), str(docs_tree / "index.md")])
    assert [path.name for path in files] == ["guide.md", "index.md"]


def test_repo_docs_actually_pass_the_link_check():
    repo_root = TOOLS_DIR.parent
    assert doc_links.main([str(repo_root / "README.md"), str(repo_root / "docs")]) == 0


# ---------------------------------------------------------------------------
# analyze.py: corpus smoke gate and single-program mode
# ---------------------------------------------------------------------------


def test_analyze_corpus_gate_is_clean(capsys):
    assert analyze.check_corpus() == 0
    out = capsys.readouterr().out
    assert "0 failures (ok)" in out


def test_analyze_source_reports_crossings():
    source = "(+ 1 (boundary int (if (boundary bool 3) false true)))"
    report = analyze.analyze_source("refs", "RefLL", source)
    assert report.crossing_count == 2
    assert report.estimated_steps > 0


def test_analyze_source_raises_on_frontend_rejection():
    with pytest.raises(Exception) as caught:
        analyze.analyze_source("refs", "RefLL", "(+ 1 (lam (x int) x))")
    assert type(caught.value).__name__ == "TypeCheckError"


def test_analyze_main_single_program_modes(capsys):
    assert analyze.main(["--system", "l3", "--language", "MiniML", "-e", "(+ 1 2)", "--json"]) == 0
    assert '"crossing_count"' in capsys.readouterr().out
    assert analyze.main(["--system", "refs", "--language", "RefLL", "-e", "(+ 1 fuzz_unbound)"]) == 1
    assert "ScopeError" in capsys.readouterr().err


def test_analyze_corpus_crossing_parameters_match_workloads():
    for system, (generator, language, per_depth, _pure) in analyze.CORPUS.items():
        report = analyze.analyze_source(system, language, generator(3))
        assert report.crossing_count == 3 * per_depth, system


# ---------------------------------------------------------------------------
# fuzz.py CLI: generate, replay, and replay regression
# ---------------------------------------------------------------------------


def test_fuzz_cli_generate_smoke(tmp_path, capsys):
    assert fuzz_cli.main(["--count", "12", "--seed", "7", "--corpus", str(tmp_path)]) == 0
    assert "12 programs agreed on every backend" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []  # no counterexamples persisted


def test_fuzz_cli_check_fails_when_the_budget_truncates(tmp_path, capsys):
    code = fuzz_cli.main(
        ["--check", "--count", "10_000", "--time-budget", "0", "--corpus", str(tmp_path)]
    )
    assert code == 1
    assert "REGRESSION" in capsys.readouterr().err


def test_fuzz_cli_replay_flags_a_planted_bad_corpus_entry(tmp_path, capsys):
    from repro.fuzz import Disagreement, FuzzCase, save_counterexample

    bad = FuzzCase(
        system="refs",
        language="RefLL",
        source="(+ 1 2)",
        kind="static-error",
        expected_error="TypeCheckError",  # it actually typechecks fine
    )
    save_counterexample(str(tmp_path), Disagreement(bad, "frontend", {"raised": None}))
    assert fuzz_cli.main(["--replay", "--corpus", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "corpus replay failure" in captured.err
    assert "1 disagreement(s)" in captured.out


# ---------------------------------------------------------------------------
# ab.py: paired-run summary
# ---------------------------------------------------------------------------

_SPEC = {
    "end_to_end": [
        {"name": "throughput_rps", "better": "higher", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [{"name": "net.retries", "better": "lower"}],
}


def _pair(a, b):
    return (a, 400.0), (b, 410.0)


def test_ab_summary_counts_pairs_won_and_flags_only_end_to_end_metrics_past_their_bound():
    pairs = [
        _pair({"throughput_rps": 100.0, "peak_rss_mb": 30.0, "net.retries": 0.0, "extra": 1.0},
              {"throughput_rps": 120.0, "peak_rss_mb": 34.0, "net.retries": 5.0, "extra": 2.0}),
        _pair({"throughput_rps": 110.0, "peak_rss_mb": 30.0, "net.retries": 0.0, "extra": 1.0},
              {"throughput_rps": 105.0, "peak_rss_mb": 34.0, "net.retries": 5.0, "extra": 2.0}),
        _pair({"throughput_rps": 90.0, "peak_rss_mb": 30.0, "net.retries": 0.0, "extra": 1.0},
              {"throughput_rps": 130.0, "peak_rss_mb": 34.0, "net.retries": 5.0, "extra": 2.0}),
    ]
    rows, flagged = ab.summarize(pairs, _SPEC)
    by_name = {row["metric"]: row for row in rows}
    assert by_name["throughput_rps"]["a"] == 100.0 and by_name["throughput_rps"]["b"] == 120.0
    assert by_name["throughput_rps"]["b_won"] == 2
    assert by_name["throughput_rps"]["a_quartiles"] == (95.0, 105.0)
    assert by_name["peak_rss_mb"]["b_won"] == 0
    assert by_name["extra"]["b_won"] is None  # undeclared: no direction
    # RSS grew 13% against a 10% bound; retries got worse, but a per-layer
    # metric has no bound.
    assert len(flagged) == 1 and flagged[0].startswith("peak_rss_mb")
    assert by_name["peak_rss_mb"]["b_quartiles"] == (34.0, 34.0)
    table = ab.render(rows, len(pairs))
    assert "| `throughput_rps` | 100 | 95–105 | 120 | 112.5–125 | +20.0% | 2/3 |" in table


def test_ab_baseline_keeps_other_workloads(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"python": "3.9.0", "workloads": {"warm-loop": {"medians": {}}}}))
    rows, _flagged = ab.summarize([_pair({"throughput_rps": 1.0}, {"throughput_rps": 2.0})], _SPEC)
    ab.write_baseline(path, "cold-mix", rows, [400.0, 420.0], pairs=1, seconds=20)
    baseline = json.loads(path.read_text())
    assert list(baseline["workloads"]) == ["cold-mix", "warm-loop"]
    assert baseline["workloads"]["cold-mix"]["medians"] == {"throughput_rps": 2.0}
    assert baseline["workloads"]["cold-mix"]["probe_median_us"] == 410.0
    assert baseline["python"] == platform.python_version()


def test_ab_trace_tabulates_only_declared_per_layer_metrics():
    pairs = [_pair({"throughput_rps": 1.0, "net.retries": 2.0, "extra": 1.0},
                   {"throughput_rps": 2.0, "net.retries": 1.0, "extra": 3.0})]
    rows, _flagged = ab.summarize(pairs, _SPEC)
    (row,) = ab.per_layer_rows(rows, _SPEC)
    assert row["metric"] == "net.retries" and row["b_won"] == 1


def test_ab_refuses_a_traced_baseline(tmp_path, capsys):
    with pytest.raises(SystemExit) as exited:
        ab.main(["HEAD~1", "HEAD", "--workload", "net-mix", "--trace", "--baseline", str(tmp_path / "b.json")])
    assert exited.value.code == 2
    assert "--trace cannot write a --baseline" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()
