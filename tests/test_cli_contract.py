"""The CLI exit contract on polynomial bodies whose coefficients span the float range.

Whatever the body, ``matbody analyze`` and ``matbody flow`` return 0, 2 or 3
and raise nothing; warnings are errors under the pytest configuration, so a
stage that lets an overflow warn fails here too.  A report written with exit 0
holds only finite numbers.
"""

import json
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from matbody.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main

COEFFICIENTS = [1e-300, -1e-300, 1e-8, 1.0, 1e8, 1e150, 1e300, 1e306, 1e307, 1.7e308]


def _exponents(variables) -> list:
    """Exponents over the 12 variables (F row-major, then x) of a product of them."""
    counts = Counter(variables)
    return [counts[v] for v in range(12)]


# total degree <= 4: a term is the product of at most four of the 12 variables
_terms = st.lists(
    st.tuples(st.lists(st.integers(0, 11), max_size=4).map(_exponents),
              st.sampled_from(COEFFICIENTS)),
    min_size=1, max_size=3)


@settings(max_examples=40)
@given(_terms)
# singular values overflow: read from null spectra as not_uniform before they were refused
@example([[[0, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1, 0], 1.7e308],
          [[0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 1], 1e300]])
# homogeneous_evidence whose chart transport meets a singular frame
@example([[[0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0], 1e306],
          [[0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0], 1e300],
          [[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 1e-300]])
# constraint rows overflow
@example([[[4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], 1e307]])
# a gap ratio beyond the float range: clean, exit 0
@example([[[0, 0, 1, 0, 0, 1, 0, 1, 0, 0, 0, 1], 1e-8],
          [[0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 0], 1e300]])
def test_cli_exit_contract_on_polynomial_bodies(tmp_path_factory, terms):
    tmp = tmp_path_factory.mktemp("contract")
    cfg = tmp / "cfg.json"
    cfg.write_text(json.dumps({
        "body": {"polynomial": {"terms": terms}},
        "grid": {"resolution": [3, 3, 3]},
        "flags": {"emit_chart": True, "emit_singular_values": True, "emit_trajectories": True},
    }))
    report = tmp / "report.json"
    rc = main(["analyze", "--config", str(cfg), "--format", "structured", "--out", str(report)])
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
    if rc == EXIT_OK:
        json.dumps(json.loads(report.read_bytes()), allow_nan=False)
    trajectory = tmp / "flow.json"
    rc = main(["flow", "--config", str(cfg), "--t", "0.1", "--x", "0,0,0",
               "--out", str(trajectory)])
    assert rc in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL)
    if rc == EXIT_OK:
        json.dumps(json.loads(trajectory.read_bytes()), allow_nan=False)
