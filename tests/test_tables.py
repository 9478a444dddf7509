import dataclasses

import numpy as np
import pytest

from mlstab import tables
from mlstab.solver import solve, solve_cells


def no_solve(*args, **kwargs):
    raise AssertionError("a cell ran before the arguments were checked")


#: the computed p of every T6 and T7 cell at t = 20, 40, .., 100 (m = 5),
#: recorded when each cell still ran alone through solver.solve.
P_PINS = {
    ("T6", "l1", 0.3): (0.27699409116079055, 0.28070397766837707, 0.282706608592537,
                        0.28403381243179493, 0.28500707174481754),
    ("T6", "l1", 0.5): (0.502641529054115, 0.5017637036187259, 0.5013994713905092,
                        0.5011897576318076, 0.5010499614808439),
    ("T6", "l1", 0.7): (0.7334718585059155, 0.7199282482663794, 0.7147450316211332,
                        0.7119194484792489, 0.7101119189971763),
    ("T6", "l1", 0.9): (0.9501794641674627, 0.9256517283606963, 0.917485788289601,
                        0.9133572015621233, 0.9108508268145254),
    ("T6", "fbdf1", 0.3): (0.2771366186254392, 0.28078280946125456, 0.2827616316378853,
                           0.28407625610862336, 0.28504170026229303),
    ("T6", "fbdf1", 0.5): (0.5032030418829299, 0.5020573007837235, 0.501598061073256,
                           0.5013397638718339, 0.5011704727812958),
    ("T6", "fbdf1", 0.7): (0.7348290259490242, 0.7205838668599213, 0.7151745461525886,
                           0.7122381654730807, 0.7103650375074054),
    ("T6", "fbdf1", 0.9): (0.9525091565713738, 0.9267409920271334, 0.9181949359867914,
                           0.9138825019783219, 0.9112678376224228),
    ("T6", "fbdf2", 0.3): (0.27698868379026875, 0.2807026564042913, 0.282706059425204,
                           0.2840335301086916, 0.2850069097867184),
    ("T6", "fbdf2", 0.5): (0.5026170307987184, 0.5017587736665279, 0.5013978609005731,
                           0.5011891852818706, 0.5010498104077821),
    ("T6", "fbdf2", 0.7): (0.7333800849795942, 0.7199119113828986, 0.7147402456860965,
                           0.7119180704570394, 0.7101118557643409),
    ("T6", "fbdf2", 0.9): (0.949885626498408, 0.9255975559557643, 0.9174673874889772,
                           0.913349674839841, 0.9108477248730855),
    ("T6", "fadams2", 0.3): (0.2769897727126497, 0.28070307362853975, 0.28270630702979915,
                             0.2840337039520115, 0.28500704305870644),
    ("T6", "fadams2", 0.5): (0.502622767377253, 0.5017608510843027, 0.5013990638728504,
                             0.5011900183952337, 0.5010504435007959),
    ("T6", "fadams2", 0.7): (0.7333897076207953, 0.7199137887459265, 0.7147409079184514,
                             0.7119183563674925, 0.7101119861846902),
    ("T6", "fadams2", 0.9): (0.9498815047490486, 0.9255889335857336, 0.9174604803149046,
                             0.9133440977876986, 0.910843082353599),
    ("T7", "alpha_diff", 0.3): (1.2507626205686857, 1.2579396377523824, 1.2620520394965062,
                                1.2648408158179487, 1.2669118381153912),
    ("T7", "alpha_diff", 0.5): (1.498947304905773, 1.499453312701891, 1.4996306399367119,
                                1.4997210495260422, 1.4997758784050716),
    ("T7", "alpha_diff", 0.7): (1.7625186808304818, 1.737571483837696, 1.727880717202078,
                                1.7225706588765486, 1.7191646764376578),
    ("T7", "alpha_diff", 0.9): (1.9992628388210305, 1.9502408665294837, 1.9341399327262339,
                                1.926039052483586, 1.92113380179342),
}


class TestSpecs:
    def test_table_ids(self):
        assert tables.TABLE_IDS == ("T2", "T3", "T4", "T5", "T6", "T7")

    def test_unknown_table(self):
        with pytest.raises(ValueError):
            tables.reproduce("T11")

    def test_zero_offset_rejected_before_any_cell(self, monkeypatch):
        # the serial cells go to solve_cells, the pool's to solve
        monkeypatch.setattr(tables, "solve", no_solve)
        monkeypatch.setattr(tables, "solve_cells", no_solve)
        for table_id in ("T4", "T6"):
            for workers in (1, 2):
                with pytest.raises(ValueError, match="m must be a positive integer"):
                    tables.reproduce(table_id, m=0, max_workers=workers)

    def test_reference_values_spot_checks(self):
        assert tables._T2["fbdf1"][(500.0, 0.5)] == 0.5002
        assert tables._T3["l1"][(100.0, 0.9)] == 0.9011
        assert tables._T4["fbdf1"][(10.0, 0.7)] == 0.7014
        assert tables._T6["fbdf2"][(20.0, 0.3)] == 0.2770
        assert tables._T7["alpha_diff"][(100.0, 0.5)] == 1.4998

    def test_t7_asserts_only_half_alpha(self):
        spec = tables._SPECS["T7"]
        assert spec.asserted("alpha_diff", 20.0, 0.5)
        assert not spec.asserted("alpha_diff", 20.0, 0.9)


class TestCsvRendering:
    def test_layout(self):
        cell = tables.CellResult("T2", "fbdf1", 100.0, 0.3, 0.30091, 0.3009,
                                 1e-5, 1e-3, True, True)
        text = tables.results_to_csv([cell])
        lines = text.splitlines()
        assert lines[0].startswith("table,scheme,t,alpha")
        assert lines[1] == "T2,fbdf1,100,0.3,0.300910,0.3009,0.000010,0.001,1,1"


class TestBatchedCells:
    @pytest.mark.parametrize("table_id", ["T2", "T3", "T6", "T7"])
    def test_cells_agree_with_their_solo_runs(self, table_id):
        # the stacked cells of a small problem against one solve per cell
        spec = tables._SPECS[table_id]
        problem = spec.problem()
        jobs = [(s, a) for s in spec.schemes for a in spec.alphas]
        N = tables._steps(spec, 5)
        batch = solve_cells(problem, jobs, spec.h, N)
        assert len(batch) == len(jobs)
        for (scheme, alpha), traj in zip(jobs, batch):
            solo = solve(dataclasses.replace(problem, alpha=alpha), scheme, spec.h, N)
            assert (traj.scheme_id, traj.alpha) == (solo.scheme_id, alpha)
            assert traj.truncated_at is solo.truncated_at is None
            assert traj.states.shape == solo.states.shape == (N + 1, problem.dim)
            scale = np.max(solo.norms())
            assert np.max(np.abs(traj.states - solo.states)) <= 1e-12 * scale

    @pytest.mark.parametrize("table_id", ["T6", "T7"])
    def test_p_pins(self, table_id):
        cells = tables.reproduce(table_id)
        assert len(cells) == 5 * len(tables._SPECS[table_id].schemes) * 4
        for c in cells:
            pinned = P_PINS[table_id, c.scheme_id, c.alpha][int(c.t) // 20 - 1]
            assert abs(c.computed - pinned) <= 1e-9

    def test_pool_gives_the_serial_cells(self):
        # the thread pool runs one solve per cell, the serial path one batch
        assert tables.reproduce("T7", max_workers=2) == tables.reproduce("T7")
