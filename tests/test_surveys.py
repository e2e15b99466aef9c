"""Survey table parsing, distributions, corpus loading, country weights."""

import numpy as np
import pytest

from fedsymptoms.surveys import (
    CountrySurvey,
    assign_countries,
    build_distribution,
    load_corpus,
    load_surveys,
)

from conftest import tiny_table


def test_load_surveys_block_format(tmp_path):
    p = tmp_path / "surveys.txt"
    p.write_text(
        "# comment line\n"
        "country: Atlantis\n"
        "total: 100\n"
        "Fever: 40\n"
        "Dry cough: 0\n"
        "\n"
        "country: Borduria\n"
        "total: 50\n"
        "Fever: 5\n",
        encoding="utf-8",
    )
    surveys = load_surveys(str(p))
    assert [s.country for s in surveys] == ["Atlantis", "Borduria"]
    assert surveys[0].total == 100
    assert surveys[0].symptom_counts == {"Fever": 40, "Dry cough": 0}
    assert surveys[1].symptom_counts == {"Fever": 5}


def test_load_surveys_missing_file():
    with pytest.raises(FileNotFoundError):
        load_surveys("/nonexistent/surveys.txt")


@pytest.mark.parametrize("text, lineno, message", [
    ("country: A\ntotal: 100\nFever: 5O\n", 3, "'5O' is not an integer"),
    ("country: A\ntotal: 1e3\nFever: 5\n", 2, "'1e3' is not an integer"),
    ("country: A\nFever: 5\n", 1, "survey for 'A' has no total"),
    ("country: A\ntotal: 10\nFever: 5\n\ncountry: A\ntotal: 10\nFever: 5\n", 5,
     "repeated country 'A'"),
    ("country: A\ntotal: 100\nFever: 5\ntotal: 200\n", 4, "second total for 'A'"),
    ("total: 10\ncountry: A\ntotal: 10\nFever: 5\n", 1, "'total' line before any country"),
    ("country: A\ntotal: 10\nFever: 11\n", 1, "count for 'Fever' outside [0, total]"),
    ("country: A\ntotal: 10\nFever: -1\n", 1, "count for 'Fever' outside [0, total]"),
    ("country: A\ntotal: 1_00\nFever: 5\n", 2, "'1_00' is not an integer"),
    ("country: A\ntotal: 100\nFever: +5\n", 3, "'+5' is not an integer"),
    ("country: A\ntotal: 100\nFever: \u0663\n", 3, "'\u0663' is not an integer"),
    ("country: A\ntotal: 100\n: 3\n", 3, "symptom line with no name"),
    ("country:\ntotal: 100\nFever: 5\n", 1, "country line with no name"),
], ids=["count-not-integer", "total-not-integer", "no-total", "repeated-country",
        "second-total", "total-before-country", "count-above-total", "count-negative",
        "underscore-digits", "plus-sign", "arabic-indic-digit", "nameless-symptom",
        "nameless-country"])
def test_load_surveys_errors_name_file_and_line(tmp_path, text, lineno, message):
    p = tmp_path / "surveys.txt"
    p.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_surveys(str(p))
    assert str(err.value).startswith(f"{p}:{lineno}: ")
    assert message in str(err.value)


def test_load_surveys_embeddability_check_names_each_offender_once(tmp_path):
    p = tmp_path / "surveys.txt"
    p.write_text("country: A\ntotal: 10\nalpha: 5\nZzxq blorp: 0\nbeta: 0\n"
                 "country: B\ntotal: 10\nalpha: 5\nZzxq blorp: 0\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_surveys(str(p), embeddings=tiny_table(["alpha"]))
    assert str(err.value) == f"{p}: unembeddable survey symptoms: Zzxq blorp, beta"
    assert len(load_surveys(str(p))) == 2
    assert len(load_surveys(str(p), embeddings=tiny_table(["alpha", "beta", "blorp"]))) == 2


def test_survey_rejects_count_above_total():
    with pytest.raises(ValueError):
        CountrySurvey(country="X", total=10, symptom_counts={"Fever": 11})


def test_survey_rejects_all_zero_counts():
    with pytest.raises(ValueError):
        CountrySurvey(country="X", total=10, symptom_counts={"Fever": 0})


def test_build_distribution_drops_zero_counts(tiny_survey):
    dist = build_distribution(tiny_survey)
    assert dist.entries == (("alpha", 0.8), ("beta", 0.2))
    assert dist.prominent_lower == {"alpha", "beta"}


def test_build_distribution_preserves_row_order():
    survey = CountrySurvey(
        country="X", total=10,
        symptom_counts={"Zeta": 1, "Alpha": 2, "Mid": 3},
    )
    assert [name for name, _ in build_distribution(survey).entries] == ["Zeta", "Alpha", "Mid"]


def test_equal_distributions_compare_and_hash_equal():
    # the hash is computed once, at construction; equality still compares the fields
    counts = {"Zeta": 1, "Alpha": 2, "Mid": 3}
    one = build_distribution(CountrySurvey(country="X", total=10, symptom_counts=counts))
    two = build_distribution(CountrySurvey(country="X", total=10, symptom_counts=dict(counts)))
    assert one is not two and one == two and hash(one) == hash(two)
    assert {one: "walk"}[two] == "walk"
    for other in (build_distribution(CountrySurvey(country="Y", total=10, symptom_counts=counts)),
                  build_distribution(CountrySurvey(country="X", total=20, symptom_counts=counts))):
        assert other != one
    assert "_hash" not in repr(one)


def test_load_corpus_requires_fifty_terms(tmp_path):
    p = tmp_path / "corpus.txt"
    p.write_text("\n".join(f"term{i}" for i in range(49)), encoding="utf-8")
    with pytest.raises(ValueError):
        load_corpus(str(p))


def test_load_corpus_rejects_case_insensitive_duplicates(tmp_path):
    p = tmp_path / "corpus.txt"
    terms = [f"term{i}" for i in range(50)] + ["Term0"]
    p.write_text("\n".join(terms), encoding="utf-8")
    with pytest.raises(ValueError, match="duplicate corpus term"):
        load_corpus(str(p))


def test_load_corpus_embeddability_check_names_offenders(tmp_path):
    p = tmp_path / "corpus.txt"
    terms = [f"term{i}" for i in range(50)] + ["unknowable phrase"]
    p.write_text("\n".join(terms), encoding="utf-8")
    table = tiny_table([f"term{i}" for i in range(50)])
    with pytest.raises(ValueError, match="unknowable phrase"):
        load_corpus(str(p), embeddings=table)


def test_bundled_surveys_shape(surveys):
    assert [s.country for s in surveys] == ["USA", "China", "Italy", "Germany", "Kenya"]
    totals = {s.country: s.total for s in surveys}
    assert totals == {
        "USA": 373883,
        "China": 55924,
        "Italy": 34142,
        "Germany": 747900,
        "Kenya": 14616,
    }
    assert sum(totals.values()) == 1226465
    for s in surveys:
        assert len(s.symptom_counts) == 16


def test_bundled_corpus_contains_all_symptoms(surveys, corpus):
    lowered = {t.lower() for t in corpus.terms}
    for survey in surveys:
        for name in survey.symptom_counts:
            assert name.lower() in lowered
    assert len(corpus) >= 50


def test_assign_countries_weighted_by_totals():
    surveys = [
        CountrySurvey(country="Big", total=900, symptom_counts={"F": 1}),
        CountrySurvey(country="Small", total=100, symptom_counts={"F": 1}),
    ]
    rng = np.random.default_rng(1234)
    n = 20000
    picks = assign_countries(n, surveys, rng)
    share_big = np.count_nonzero(picks == 0) / n
    # 99.9% binomial interval around 0.9 at n=20000
    sigma = (0.9 * 0.1 / n) ** 0.5
    assert abs(share_big - 0.9) < 3.2905 * sigma


def test_assign_countries_deterministic():
    surveys = [
        CountrySurvey(country="A", total=500, symptom_counts={"F": 1}),
        CountrySurvey(country="B", total=500, symptom_counts={"F": 1}),
    ]
    a = assign_countries(50, surveys, np.random.default_rng(7))
    b = assign_countries(50, surveys, np.random.default_rng(7))
    assert np.array_equal(a, b)


def test_assign_countries_scale_invariant_weights():
    base = [
        CountrySurvey(country="A", total=300, symptom_counts={"F": 1}),
        CountrySurvey(country="B", total=700, symptom_counts={"F": 1}),
    ]
    scaled = [
        CountrySurvey(country="A", total=3000, symptom_counts={"F": 1}),
        CountrySurvey(country="B", total=7000, symptom_counts={"F": 1}),
    ]
    a = assign_countries(200, base, np.random.default_rng(3))
    b = assign_countries(200, scaled, np.random.default_rng(3))
    assert np.array_equal(a, b)
