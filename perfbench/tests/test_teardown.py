"""No process the benchmark starts may outlive it.

Covers the group teardown itself (orphans, children that ignore
SIGTERM, leaders that exit leaving a process behind), the two ways a
``serve_mix`` run can end early (an exception in the load generator and
a SIGTERM delivered to the benchmark, each after ``repro serve`` and its
process-pool workers are up), and an input build interrupted while its
own ``repro serve`` is priming the serve store.
"""

import os
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfbench import prepare, serve_mix
from perfbench.calibrate import HostSpeed
from perfbench.inputs import Inputs, child_env
from perfbench.procs import (
    GroupSurvived,
    ProcessGroups,
    become_subreaper,
    children,
    group_alive,
)
from perfbench.run import Context, Interrupted, _on_signal
from perfbench.spans import Tracer
from perfbench.stats import Ops

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module", autouse=True)
def subreaper():
    assert become_subreaper()


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """Inputs over two small designs (the full build takes a minute)."""
    target = tmp_path_factory.mktemp("inputs") / "built"
    prepare.build(target, designs=("b03", "b04"), warm=(),
                  small=("b03",), large=("b04",))
    return Inputs(target)


def _members(pgid):
    """Live pids of process group ``pgid``."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                if os.getpgid(int(entry)) == pgid:
                    pids.append(int(entry))
            except ProcessLookupError:
                pass
    return pids


def test_stop_reaps_orphans_of_the_group():
    groups = ProcessGroups(grace_s=2.0)
    proc = groups.spawn(["sh", "-c", "(sleep 60 &); sleep 60"])
    deadline = time.monotonic() + 5
    while len(_members(proc.pid)) < 2 and time.monotonic() < deadline:
        time.sleep(0.02)
    assert len(_members(proc.pid)) >= 2
    groups.stop(proc)
    assert not group_alive(proc.pid)
    assert groups.live_groups == []


def test_stop_kills_a_group_that_ignores_sigterm():
    groups = ProcessGroups(grace_s=0.5)
    proc = groups.spawn(["sh", "-c", "trap '' TERM; sleep 60"])
    time.sleep(0.2)
    assert groups.stop(proc) == -signal.SIGKILL
    assert not group_alive(proc.pid)


def test_leader_exiting_with_a_leftover_fails_the_run():
    groups = ProcessGroups(grace_s=2.0)
    spawned = []
    real_spawn = groups.spawn

    def spawn(argv, **kwargs):
        proc = real_spawn(argv, **kwargs)
        spawned.append(proc.pid)
        return proc

    groups.spawn = spawn
    with pytest.raises(GroupSurvived):
        groups.run(["sh", "-c", "(sleep 60 &)"], timeout=10)
    assert not group_alive(spawned[0])


def _serve_ctx(inputs, tmp_path, groups):
    return Context(
        inputs=inputs, seed=3, seconds=2.0, tracer=Tracer(enabled=False),
        groups=groups, ops=Ops(), env=child_env(ROOT), workdir=tmp_path,
        speed=HostSpeed(), setup_repeats=1,
    )


def _spy(groups, spawned):
    real_spawn = groups.spawn

    def spawn(argv, **kwargs):
        proc = real_spawn(argv, **kwargs)
        spawned.append(proc.pid)
        return proc

    groups.spawn = spawn


def _failing_send(monkeypatch, spawned, seen, action):
    """Run ``action`` on the 20th request, once the pool workers exist."""
    real_send = serve_mix.send
    calls = []

    def send(port, planned):
        calls.append(planned)
        if len(calls) == 20:
            seen.extend(_members(spawned[-1]))
            action()
            return
        real_send(port, planned)

    monkeypatch.setattr(serve_mix, "send", send)


def test_exception_in_serve_mix_leaves_no_process(
    tiny_inputs, tmp_path, monkeypatch
):
    groups = ProcessGroups()
    spawned, seen = [], []
    _spy(groups, spawned)

    def fail():
        raise RuntimeError("load generator failed")

    _failing_send(monkeypatch, spawned, seen, fail)
    with pytest.raises(RuntimeError, match="load generator failed"):
        serve_mix.run(_serve_ctx(tiny_inputs, tmp_path, groups))
    assert len(seen) >= 2, "server and at least one pool worker were up"
    assert not group_alive(spawned[-1])
    assert not any(_pid_alive(pid) for pid in seen)
    assert groups.live_groups == []


def test_sigterm_during_serve_mix_leaves_no_process(
    tiny_inputs, tmp_path, monkeypatch
):
    groups = ProcessGroups()
    spawned, seen = [], []
    _spy(groups, spawned)
    _failing_send(monkeypatch, spawned, seen,
                  lambda: os.kill(os.getpid(), signal.SIGTERM))
    previous = {
        signum: signal.signal(signum, _on_signal)
        for signum in (signal.SIGINT, signal.SIGTERM)
    }
    try:
        with pytest.raises(Interrupted):
            serve_mix.run(_serve_ctx(tiny_inputs, tmp_path, groups))
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    assert len(seen) >= 2
    assert not group_alive(spawned[-1])
    assert not any(_pid_alive(pid) for pid in seen)


def _pid_alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


#: A tiny input build whose serve priming stalls after its first answer,
#: with the server and a pool worker up, until the build is interrupted.
_STALLED_BUILD = """
import sys, time
from pathlib import Path
sys.path[:0] = [{root!r}, {src!r}]
from perfbench import prepare, serve_mix
real_post = serve_mix.post
def post(*args):
    answer = real_post(*args)
    print("primed", flush=True)
    time.sleep(120)
    return answer
serve_mix.post = post
prepare.exit_on_signal()
prepare.build(Path({target!r}), designs=("b03", "b04"), warm=(),
              small=("b03",), large=("b04",))
"""


def _stalled_build(groups, tmp_path):
    """Spawn the stalled build; (builder, server, pids of its group)."""
    script = _STALLED_BUILD.format(
        root=str(ROOT), src=str(ROOT / "src"), target=str(tmp_path / "built")
    )
    builder = groups.spawn(
        [sys.executable, "-c", script], env=child_env(ROOT),
        stdout=subprocess.PIPE, text=True,
    )
    deadline = time.monotonic() + 180
    while time.monotonic() < deadline:
        ready, _, _ = select.select([builder.stdout], [], [], 0.5)
        if ready and builder.stdout.readline().strip() == "primed":
            break
    else:
        raise AssertionError("the build never reached serve priming")
    servers = [pid for pid in children(builder.pid)
               if os.getpgid(pid) != builder.pid]
    assert len(servers) == 1, "the builder's server runs in its own group"
    members = _members(servers[0])
    assert len(members) >= 2, "server and at least one pool worker were up"
    return builder, servers[0], members


def test_sigterm_to_the_build_stops_its_server(tmp_path):
    groups = ProcessGroups(grace_s=10.0)
    builder, _server, members = _stalled_build(groups, tmp_path)
    groups.stop(builder)
    assert not any(_pid_alive(pid) for pid in members)
    assert groups.stop_all() == []
    assert children(os.getpid()) == []


def test_build_killed_outright_leaves_no_server(tmp_path):
    groups = ProcessGroups(grace_s=10.0)
    builder, server, members = _stalled_build(groups, tmp_path)
    os.killpg(builder.pid, signal.SIGKILL)  # no finally runs in the builder
    deadline = time.monotonic() + 10
    while server not in children(os.getpid()) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert server in children(os.getpid()), "the server was adopted"
    assert groups.stop_all() == []
    assert not any(_pid_alive(pid) for pid in members)
    assert children(os.getpid()) == []
