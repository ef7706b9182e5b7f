"""The scripts run and print what they printed when their figures were checked."""

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# First-layer spans of the paper's single-span geometries: 200 conv1
# positions of stride S and kernel length L cover 199 * S + L samples.
SPAN_TABLE = """\
id\tstride\tkernel\tspan_samples\tspan_ms
I_10^400\t10\t400\t2390\t149.38
I_10^100\t10\t100\t2090\t130.62
I_10^50\t10\t50\t2040\t127.50
I_10^25\t10\t25\t2015\t125.94
I_4^50\t4\t50\t846\t52.88
I_9^50\t9\t50\t1841\t115.06
I_15^50\t15\t50\t3035\t189.69
I_20^50\t20\t50\t4030\t251.88
"""


def test_span_table_prints_the_paper_spans(capsys):
    runpy.run_path(str(SCRIPTS / "span_table.py"))["main"]()
    assert capsys.readouterr().out == SPAN_TABLE


def test_each_mutant_names_text_its_module_holds_once():
    """scripts/mutants.py's campaign is too slow for tier-1; this keeps its
    list from rotting as the modules change."""
    package = SCRIPTS.parent / "src" / "msam"
    script = runpy.run_path(str(SCRIPTS / "mutants.py"))
    # The campaign deselects this test by name: every applied mutant fails it.
    assert script["LIST_CHECK"].endswith("::test_each_mutant_names_text_its_module_holds_once")
    mutants = script["MUTANTS"]
    assert len(mutants) >= 12
    for module, old, new, reason in mutants:
        assert (package / module).read_text().count(old) == 1, (module, old)
        assert new != old and reason, (module, old)
