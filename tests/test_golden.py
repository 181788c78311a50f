"""The golden rows of tests/golden.py: ten commands against their files."""

import json

from golden import COMMANDS, GOLDEN, close, compare, run_commands


def test_golden_rows_match_their_files():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(COMMANDS)
    faults, diffs = [], []
    for name, result in run_commands().items():
        golden = json.loads((GOLDEN / f"{name}.json").read_text())
        assert golden["command"] == result["command"]
        found, changed = compare(golden, result)
        faults += [f"{name}: {line}" for line in found]
        diffs += [f"{name}: {line}" for line in changed]
    # a difference within the tolerance is printed, not raised: pytest.ini
    # turns every warning into a failure
    if diffs:
        print("\n".join(["bytes differ within the tolerance:", *diffs]))
    assert not faults, "\n".join(faults)


def test_close_reads_numbers_apart_from_names():
    assert close("c0,1.5e-3,-2", "c0,1.5000000001e-3,-2.000000000001")
    assert not close("c0,1.5e-3", "c0,1.500001e-3")
    assert not close("c0,1", "c1,1")
    assert not close("1,2", "1,,2")
    assert close("x 0", "x 1e-13") and not close("x 0", "x 1e-11")


def test_compare_holds_failure_lines_and_exit_codes_exact():
    golden = {"exit": 2, "stdout": ["a,b", "1,0.5"],
              "stderr": ["[kernels] point {'alpha': 4.0} failed: 2 points",
                         "c0: sim vs theory: max rel deviation 4.441e-16"]}
    same = json.loads(json.dumps(golden))
    assert compare(golden, same) == ([], [])
    moved = {**same, "stdout": ["a,b", "1,0.50000000000001"],
             "stderr": [same["stderr"][0],
                        "c0: sim vs theory: max rel deviation 4.4410000000001e-16"]}
    faults, diffs = compare(golden, moved)
    assert faults == [] and len(diffs) == 2
    broken = {**same, "exit": 0,
              "stderr": ["[kernels] point {'alpha': 4.00000000001} failed: 2 points",
                         same["stderr"][1]]}
    faults, _ = compare(golden, broken)
    assert len(faults) == 2 and faults[0].startswith("exit 0")
