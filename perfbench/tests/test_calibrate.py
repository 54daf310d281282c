"""Op timing at nominal host speed (perfbench.calibrate.HostSpeed)."""

import time

import pytest

from perfbench import calibrate
from perfbench.calibrate import HostSpeed


class Scripted(HostSpeed):
    """A HostSpeed whose samples return scripted speeds and CPU costs."""

    def __init__(self, samples):
        super().__init__(cpus=[0], enabled=True)
        self.script = list(samples)

    def sample(self):
        speed, spent = self.script.pop(0)
        self.speeds.append(speed)
        self._last = (time.perf_counter(), speed)
        return speed, spent


def test_op_scales_its_wall_by_the_mean_speed_of_its_samples():
    speed = Scripted([(0.5, 0.0), (1.5, 0.0)])
    with speed.op(during=False) as timing:
        time.sleep(0.05)
    assert timing.samples == 2
    assert timing.nominal == pytest.approx(timing.wall * 1.0)
    assert 0.05 <= timing.wall < 0.5


def test_samples_during_an_op_are_taken_out_of_its_wall(monkeypatch):
    monkeypatch.setattr(calibrate, "SAMPLE_EVERY_S", 0.02)
    # before, then samples that each "cost" 1 ms of CPU
    speed = Scripted([(1.0, 0.0)] + [(0.5, 0.001)] * 50)
    start = time.perf_counter()
    with speed.op() as timing:
        while time.perf_counter() - start < 0.2:
            pass
    elapsed = time.perf_counter() - start
    during = timing.samples - 2
    assert during >= 3
    assert timing.wall == pytest.approx(elapsed - 0.001 * during, abs=0.01)
    assert len(speed.speeds) == timing.samples
    mean = sum(speed.speeds) / len(speed.speeds)
    assert timing.nominal == pytest.approx(timing.wall * mean)


def test_a_fresh_sample_serves_as_the_next_ops_before():
    speed = Scripted([(1.0, 0.0), (2.0, 0.0), (3.0, 0.0)])
    with speed.op(during=False):
        pass
    with speed.op(during=False) as second:
        pass
    # the second op reused the first one's "after" (2.0) as its "before"
    assert second.samples == 2
    assert speed.speeds == [1.0, 2.0, 3.0]


def test_a_disabled_host_speed_reports_raw_walls_and_takes_no_samples():
    speed = HostSpeed(cpus=[0], enabled=False)
    with speed.op() as timing:
        time.sleep(0.01)
    assert timing.nominal == timing.wall > 0
    with speed.background():
        pass
    assert speed.speeds == [] and speed.speed_at(0.0) == 1.0


def test_speed_at_averages_the_samples_on_either_side_per_cpu():
    speed = HostSpeed(cpus=[0, 1], enabled=False)
    speed.enabled = True
    speed.timeline = {0: [(1.0, 0.5), (2.0, 1.0), (3.0, 2.0)],
                      1: [(1.5, 1.0), (2.5, 1.0)]}
    assert speed.speed_at(1.2) == pytest.approx(((0.5 + 1.0) / 2 + 1.0) / 2)
    assert speed.speed_at(2.2) == pytest.approx(((1.0 + 2.0) / 2 + 1.0) / 2)
    assert speed.speed_at(0.0) == pytest.approx((0.5 + 1.0) / 2)
    assert speed.speed_at(9.0) == pytest.approx(((1.0 + 2.0) / 2 + 1.0) / 2)


def test_background_samples_every_cpu_and_restores_switching():
    import sys

    speed = HostSpeed(cpus=[0])
    switch = sys.getswitchinterval()
    with speed.background():
        time.sleep(0.05)
    assert sys.getswitchinterval() == switch
    assert len(speed.timeline[0]) >= 2
    assert speed.speed_at(time.perf_counter()) > 0


def test_reference_runs_and_is_deterministic():
    assert calibrate.reference() == calibrate.reference()
