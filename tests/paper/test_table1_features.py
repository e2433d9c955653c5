"""T1 — Table 1: protocol feature comparison, regenerated live.

Every cell of the paper's feature matrix is demonstrated by running the
corresponding scenario on the corresponding stack (see
``tests.paper.features``).  The test asserts the measured matrix
matches the paper and prints it in the paper's notation.
"""

from tests.helpers import report
from tests.paper.features import (
    FEATURES,
    PAPER_TABLE,
    PROTOCOLS,
    evaluate_matrix,
    expected_bool,
    render_table,
)


def test_table1_full_matrix():
    measured = evaluate_matrix()
    mismatches = [
        (feature, protocol)
        for feature in FEATURES
        for protocol in PROTOCOLS
        if measured[feature][protocol] != expected_bool(PAPER_TABLE[feature][protocol])
    ]
    report(
        "Table 1 — Protocol features comparison (measured)",
        [
            "legend: yes=✓  (yes)=(✓) partial  (no)=(✗) hard  no=✗ ;",
            "        '=' measured matches the paper, '!' mismatch",
            "",
            render_table(measured),
        ],
    )
    assert mismatches == [], f"cells differing from the paper: {mismatches}"


def test_paper_table_is_complete():
    assert set(PAPER_TABLE) == set(FEATURES)
    for feature in FEATURES:
        assert set(PAPER_TABLE[feature]) == set(PROTOCOLS)


def test_render_table_shape():
    table = render_table()
    lines = table.splitlines()
    assert len(lines) == 2 + len(FEATURES)
    assert "tcpls" in lines[0]


def test_render_table_marks_mismatches():
    measured = {
        feature: {
            protocol: expected_bool(cell)
            for protocol, cell in row.items()
        }
        for feature, row in PAPER_TABLE.items()
    }
    # All matching -> only '=' marks.
    table = render_table(measured)
    assert "!" not in table
    # Flip one cell -> a '!' appears.
    measured["streams"]["tcpls"] = False
    table = render_table(measured)
    assert "!" in table
