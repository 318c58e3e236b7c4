"""Each output check accepts good output and rejects a corrupted one."""

import json

from checks import check_grid, check_solve_body, check_sweep

HEADER = ("protocol,sharing,n_processors,method,speedup,u_bus,w_bus,"
          "cycle_time,processing_power,sim_ci,error\n")
GOLDEN = [{"protocol": "Write-Once", "sharing": "1%", "n": 1,
           "speedup": 0.8696051868222514, "u_bus": 0.13039481317774862,
           "w_bus": 0.0, "cycle_time": 4.024815,
           "processing_power": 0.6211465620158939}]
GRID = (HEADER
        + "Write-Once,1%,1,mva,0.869605,0.130395,0,4.02482,0.621147,,\n"
        + "Write-Once,1%,2,mva,1.70605,0.256907,0.554274,4.10305,"
          "1.21861,,\n")


def test_grid_accepts_identical_passes_matching_the_corpus():
    assert check_grid(GRID, [GRID, GRID], 2, GOLDEN, (1,)) == (6, 0)


def test_grid_rejects_a_corrupted_warm_row():
    warm = GRID.replace("1.70605", "1.70606")
    assert check_grid(GRID, [warm, GRID], 2, GOLDEN, (1,)) == (6, 1)


def test_grid_rejects_rows_that_drift_from_the_corpus():
    drifted = GRID.replace("0.869605", "0.869606")
    assert check_grid(drifted, [drifted], 2, GOLDEN, (1,))[1] == 1


def test_grid_counts_error_and_missing_rows():
    broken = GRID.replace("1.21861,,", "1.21861,,SolverError: x")
    truncated = GRID.rsplit("Write-Once,1%,2", 1)[0]
    _, failed = check_grid(broken, [broken, truncated], 2, GOLDEN, (1,))
    assert failed == 2 + 1 + 1  # two error rows, one missing, one diff


SWEEP = (HEADER
         + "Write-Once,1%,4,mva,3.23744,0.49,2.16,4.32,2.31,,\n"
         + "Write-Once,1%,4,sim,3.25894,0.49,1.94,4.29,2.32,0.02,\n")


def test_sweep_accepts_des_within_the_band():
    attempted, failed, gap = check_sweep(SWEEP, 2)
    assert (attempted, failed) == (2, 0)
    assert 0.006 < gap < 0.007


def test_sweep_rejects_des_outside_the_band():
    assert check_sweep(SWEEP.replace("3.25894", "3.5"), 2)[1] == 1


def test_sweep_rejects_error_rows():
    broken = SWEEP.replace("0.02,\n", "0.02,RuntimeError: x\n")
    assert check_sweep(broken, 2)[1] == 1


ROWS = [{"protocol": "Berkeley", "n_processors": 10, "speedup": 5.3,
         "status": "ok"}]


def _body(rows, failures=()):
    return json.dumps({"results": [dict(r, cached=False) for r in rows],
                       "failures": list(failures)}).encode()


def test_solve_body_matches_reference_ignoring_cached():
    assert check_solve_body(200, _body(ROWS), ROWS)


def test_solve_body_rejects_corruption():
    wrong = [dict(ROWS[0], speedup=5.31)]
    assert not check_solve_body(200, _body(wrong), ROWS)
    assert not check_solve_body(200, _body(ROWS)[:-5], ROWS)
    assert not check_solve_body(500, _body(ROWS), ROWS)
    assert not check_solve_body(200, _body(ROWS, [{"n": 1}]), ROWS)
