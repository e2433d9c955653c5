"""The deterministic fuzz campaign: coverage, cleanliness, replayability."""

import random

from repro.fuzz import (
    FORMATS,
    MUTATORS,
    TARGETS,
    mutate,
    run_campaign,
    seed_corpus,
)
from repro.fuzz.harness import (
    CampaignReport,
    Crasher,
    DEFAULT_ITERATIONS,
    save_crashers,
)

# The acceptance campaign: at least this many inputs across all formats.
CAMPAIGN_ITERATIONS = 5_250
CAMPAIGN_SEED = 2026


def test_seed_corpus_covers_every_format():
    corpus = seed_corpus()
    assert set(corpus) == set(FORMATS)
    assert len(FORMATS) == 7
    for format_name, entries in corpus.items():
        assert entries, f"empty corpus for {format_name}"
        assert all(isinstance(entry, bytes) for entry in entries)
    assert set(TARGETS) == set(FORMATS)


def test_campaign_5000_plus_inputs_no_uncaught_exceptions():
    """The tentpole acceptance run: >=5000 seeded inputs over all seven
    wire formats; every outcome is parse-or-typed-rejection."""
    report = run_campaign(seed=CAMPAIGN_SEED, iterations=CAMPAIGN_ITERATIONS)
    assert report.iterations == CAMPAIGN_ITERATIONS >= 5_000
    assert report.clean, (
        "parsers leaked untyped exceptions:\n"
        + "\n".join(
            f"  {crasher.format}/{crasher.mutation}: {crasher.exception} "
            f"repro={crasher.repro_hex()}"
            for crasher in report.crashers[:10]
        )
    )
    # Every format got a meaningful share of the budget.
    for format_name in FORMATS:
        assert report.per_format.get(format_name, 0) >= 500, report.per_format
    # The campaign actually exercised the reject paths, not just happy
    # parses — a fuzzer whose mutations never trip a parser is broken.
    for format_name in FORMATS:
        assert report.rejected_per_format.get(format_name, 0) > 0, (
            f"no rejected inputs for {format_name}: mutations too tame"
        )
    assert report.accepted > 0


def test_campaign_bit_for_bit_reproducible():
    first = run_campaign(seed=99, iterations=1_500)
    second = run_campaign(seed=99, iterations=1_500)
    assert first.digest == second.digest
    assert first.to_dict() == second.to_dict()
    other = run_campaign(seed=100, iterations=1_500)
    assert other.digest != first.digest


def test_mutators_are_deterministic_and_total():
    corpus = seed_corpus()
    for format_name, entries in corpus.items():
        for entry in entries:
            a = mutate(random.Random(5), entry)
            b = mutate(random.Random(5), entry)
            assert a == b
    # Every mutator handles degenerate inputs without raising.
    for name, mutator in MUTATORS:
        for data in (b"", b"\x00", b"ab"):
            result = mutator(random.Random(1), data)
            assert isinstance(result, bytes), name


def test_default_budget_ignores_the_environment(monkeypatch):
    monkeypatch.setenv("REPRO_FUZZ_QUICK", "1")
    report = run_campaign(seed=3, formats=["tcp_options"])
    assert report.iterations == DEFAULT_ITERATIONS


def test_campaign_restricted_to_one_format():
    report = run_campaign(seed=3, iterations=400, formats=["tcp_options"])
    assert set(report.per_format) == {"tcp_options"}
    assert report.per_format["tcp_options"] == 400


def test_crasher_artifacts_roundtrip(tmp_path):
    report = CampaignReport(seed=1, iterations=1)
    report.crashers.append(
        Crasher(
            format="tcp_options",
            mutation="length_lie",
            data=b"\x02\x00",
            exception="IndexError: boom",
        )
    )
    (path,) = save_crashers(report, str(tmp_path))
    content = open(path, encoding="utf-8").read()
    assert "tcp_options" in content
    assert "0200" in content
    assert "IndexError" in content


def test_cli_exits_zero_on_clean_run(capsys):
    from repro.fuzz.__main__ import main

    assert main(["--seed", "3", "--iterations", "300"]) == 0
    out = capsys.readouterr().out
    assert "crashers=0" in out


def test_campaign_telemetry_counters_and_span():
    from repro.obs import Observability

    obs = Observability(sim=None)
    report = run_campaign(seed=11, iterations=300, obs=obs)
    snapshot = obs.telemetry.snapshot()
    assert snapshot["fuzz"]["inputs"] == 300
    assert snapshot["fuzz"]["rejected"] == report.rejected > 0
    (span,) = [
        record
        for record in obs.tracer.timeline()
        if record["component"] == "fuzz"
    ]
    assert span["event"] == "campaign"
    assert span["seed"] == 11
