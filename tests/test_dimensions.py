import pytest

from pipeclimber import UnknownSize, pipe_dimensions, pipe_inner_diameter, pipe_inner_radius


def test_nps6_schedule40():
    assert pipe_inner_diameter("6", "40") == pytest.approx(154.05, abs=0.01)
    assert pipe_inner_radius("6", "40") == pytest.approx(77.03, abs=0.01)


def test_nps2_schedule40():
    assert pipe_inner_diameter("2", "40") == pytest.approx(52.50, abs=0.01)
    assert pipe_inner_radius("2", "40") == pytest.approx(26.25, abs=0.01)


def test_unknown_schedule():
    with pytest.raises(UnknownSize):
        pipe_inner_radius("6", "extra-strong")


def test_unknown_designator():
    with pytest.raises(UnknownSize):
        pipe_inner_radius("11", "40")


@pytest.mark.parametrize(
    "spelling",
    ["6", 6, 6.0, "NPS 6", "nps 6", " 6 "],
)
def test_designator_spellings(spelling):
    assert pipe_inner_radius(spelling, 40) == pipe_inner_radius("6", "40")


@pytest.mark.parametrize("spelling", ["1-1/2", "1 1/2", "1.5", 1.5])
def test_fractional_designators(spelling):
    od, wall = pipe_dimensions(spelling, "40")
    assert od == pytest.approx(48.260, abs=0.001)
    assert wall == pytest.approx(3.683, abs=0.001)


def test_schedule_spellings():
    base = pipe_dimensions("6", "40")
    for schedule in (40, "SCH 40", "sch 40", "40.0", 40.0):
        assert pipe_dimensions("6", schedule) == base


def test_wall_thinner_than_radius_everywhere():
    # sanity over the whole table: positive bore for every entry
    for nps in ("1/2", "1", "2", "4", "6", "8", "12"):
        for schedule in ("40", "80"):
            assert pipe_inner_diameter(nps, schedule) > 0.0
