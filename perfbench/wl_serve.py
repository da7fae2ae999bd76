"""``serve``: the live admission service over real sockets.

``python -m repro serve --port 0`` runs as its own process with default
settings: the 20-movie / 5-popular deployment, control plane and SLO monitor
on, tracing off.  The client here is one single-threaded process with at
most two connections that replays a seeded
``repro.service.bootstrap.workload_for`` trace in two phases, each against a
fresh server:

* **paced** (open loop, two connections, sessions split by id): every
  request is due at its trace timestamp scaled by ``--speedup``, so the
  service clock follows the trace.  The client never waits for an answer
  before sending, so it sends each request at its due time unless its own
  CPU was taken; latency runs from that send to the kernel's receive stamp
  on the answer, and how late the client sent is reported on its own
  (``client.late_p99_ms``).  A stall delays every request queued behind
  it.  While this phase runs, ``idle_spin.py`` keeps the server's CPU out
  of idle, so a request does not also wait for the hypervisor to wake it,
  and notes when the host lent that CPU to another tenant.
* **saturation** (closed loop): batches of up to ``WINDOW`` requests on
  one connection, in timeline order, in bursts of 0.2 s; throughput is
  answers per second of server CPU time.

Times are scaled to the reference host speed (``calib.py``) by calibration
slices the client runs on the server's CPU: in idle gaps of the paced
phase, between saturation bursts and around each server start.

A session's follow-up requests wait for its start verdict, and nothing is
sent for a session after its ``session_end`` (``compile_timeline`` can order
a ``resume`` after the end; those are counted as skipped).  This is the only
workload that runs the socket path and the control ticks on the event loop.
"""

from __future__ import annotations

import bisect
import json
import os
import selectors
import signal
import socket
import struct
import subprocess
import sys
import time
from pathlib import Path

from calib import HostSpeed, scale_factor
from helpers import (Outcome, ResumeClassifier, detect_stalls, hit_gap, interpolate, median,
                     percentile)
from repro.obs.scrape import parse_exposition
from repro.service.bootstrap import default_catalog, plan_for, workload_for
from repro.service.loadgen import compile_timeline
from wl_decide import CATALOG_SEED, MOVIES, POPULAR, WAIT, model_hit_probabilities

HERE = Path(__file__).resolve().parent
#: The trace: 5 sessions per service minute over 600 service minutes.  The
#: paced server runs at 750 service minutes per wall minute, so a control
#: tick (every 30 service minutes) comes every 2.4 s and the paced phase
#: offers about 400 requests per second.  A fresh deployment re-plans on
#: its first ticks, five or six in a 20 s run, and each re-plan blocks the
#: event loop for about half a second: the tail of the paced latencies.
#: ``p99_ms`` is set by the longest few re-plans, so fewer of them (slower
#: playback, 500: four) leave it to the single longest and its spread
#: doubles; at 1000 a third of the requests queue behind re-plans, and the
#: median request is then one of them and moves with every re-plan.
ARRIVAL_RATE, HORIZON, SPEEDUP = 5.0, 600.0, 750.0
#: Share of ``--seconds`` spent in the paced phase; the rest is saturation.
PACED_SHARE = 0.8
CONNECTIONS, WINDOW = 2, 128
#: The server's own default ``--slo-p99``.
SLO_SECONDS = 0.5
#: Extra server start-ups per run, besides the two phases', for ``setup_s``.
SETUP_PROBES = 3
START_TIMEOUT, STOP_TIMEOUT, DRAIN_TIMEOUT = 60.0, 30.0, 10.0
#: Least time to the next due request for a calibration slice to run.
SLICE_ROOM_S = 0.005
#: Seconds between two readings of the server's CPU time in the paced phase.
CPU_SAMPLE_S = 0.002
#: A paced request this late waited behind work the server was doing (a
#: re-plan, a queue); its latency counts only the time the server ran
#: (``Pass.paced_latencies_ms``).
BUSY_WAIT_S = 0.050
#: Paced phases per run at most, and the least availability that ends the
#: retries (``Pass.availability``); quiet runs measure 0.94 to 0.99.
PACED_ATTEMPTS, AVAILABILITY_FLOOR = 3, 0.85
#: Length of one closed-loop burst of the saturation phase.
BURST_S = 0.2
#: Seconds around a paced request within which slices scale its latency:
#: wide enough to gather several of the sparse paced-phase slices.
PACED_WINDOW_S = 1.0
SCRAPE_ID = 1 << 40
#: ``SO_TIMESTAMPNS`` (Linux): the kernel stamps each read with the time
#: the data reached the socket, so an answer's time does not depend on when
#: the client got to read it.
SO_TIMESTAMPNS = getattr(socket, "SO_TIMESTAMPNS", 35)
#: With two CPUs the client and the server each get one, so the scheduler
#: cannot stack them on one CPU and serialise the two processes.
CLIENT_CPUS, SERVER_CPUS = ({0}, {1}) if len(os.sched_getaffinity(0)) >= 2 else (None, None)


def stolen_gaps(gaps, times, cpu) -> list[tuple[float, float]]:
    """The spinner's gaps (``idle_spin.py``) in which the server ran for
    less than half the time: the CPU was neither idle nor the server's, so
    the host had lent it to another tenant.  A gap the server filled is its
    own work (a tick, a burst of requests) and is not among them.  The
    server's CPU time is interpolated between the client's readings."""
    return [(start, end) for start, end in gaps
            if interpolate(times, cpu, end) - interpolate(times, cpu, start)
            < 0.5 * (end - start)]


def run_seconds(pid: int) -> float:
    """Seconds the threads of process ``pid`` have run on a CPU, to the
    nanosecond: time spent waiting for a CPU, whether for another task or
    for the hypervisor, is not in it."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            pass  # a thread that ended between the listing and the read
    return total / 1e9


class ServerProcess:
    """One ``repro serve`` process: start-up, resource readings, shutdown."""

    def __init__(self, out_dir: Path, label: str, speed: HostSpeed,
                 spans_path: Path | None = None, speedup: float | None = None) -> None:
        arguments = ["--port", "0"]
        if speedup is not None:
            arguments += ["--speedup", repr(speedup)]
        if spans_path is None:
            command = [sys.executable, "-m", "repro", "serve", *arguments]
        else:
            command = [sys.executable, str(HERE / "serve_launcher.py"), str(spans_path),
                       *arguments]
        self.stderr_path = out_dir / f"server-{label}.stderr"
        speed.burst()
        started = time.perf_counter()
        with open(self.stderr_path, "w") as stderr:
            self.proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=stderr,
                                         text=True)
        if SERVER_CPUS is not None:
            os.sched_setaffinity(self.proc.pid, SERVER_CPUS)
        try:
            self.port = self._await_listening(started + START_TIMEOUT)
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        listening = time.perf_counter()
        speed.burst()
        #: Start-up to ``listening on``: (raw, scaled) seconds.
        self.raw_setup_s, self.setup_s = speed.measure(started, listening)
        self.cpu_at_start = self.run_seconds()

    def _await_listening(self, deadline: float) -> int:
        selector = selectors.DefaultSelector()
        selector.register(self.proc.stdout, selectors.EVENT_READ)
        try:
            while time.perf_counter() < deadline:
                if not selector.select(deadline - time.perf_counter()):
                    break
                line = self.proc.stdout.readline()
                if not line:
                    break
                if line.startswith("listening on "):
                    return int(line.rsplit(":", 1)[1])
        finally:
            selector.close()
        raise RuntimeError(f"server did not report 'listening on' "
                           f"(exit {self.proc.poll()}); see {self.stderr_path}")

    def run_seconds(self) -> float:
        return run_seconds(self.proc.pid)

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> dict:
        """SIGTERM, then kill on a timeout; what the shutdown looked like."""
        cpu = self.run_seconds() - self.cpu_at_start
        rss = self.peak_rss_mb()
        self.proc.send_signal(signal.SIGTERM)
        killed = False
        try:
            stdout, _ = self.proc.communicate(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            stdout, _ = self.proc.communicate()
            killed = True
        stderr = self.stderr_path.read_text()
        drained = [line for line in stdout.splitlines() if line.startswith("drained:")]
        peak_open = int(drained[0].rsplit(" ", 1)[1]) if drained else 0
        return {"cpu_s": cpu, "rss_mb": rss, "exit": self.proc.returncode,
                "killed": killed, "drained": bool(drained), "peak_open": peak_open,
                "tracebacks": stderr.count("Traceback (most recent call last)")}


class Lane:
    """One client connection: non-blocking socket plus its buffers."""

    def __init__(self, port: int, selector: selectors.BaseSelector) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setsockopt(socket.SOL_SOCKET, SO_TIMESTAMPNS, 1)
        #: perf_counter = kernel CLOCK_REALTIME stamp - offset (nanoseconds)
        self.offset_ns = time.time_ns() - time.perf_counter_ns()
        self.sock.setblocking(False)
        self.selector = selector
        self.rbuf = bytearray()
        self.wbuf = bytearray()
        self.pending: dict[int, tuple] = {}
        self.events = selectors.EVENT_READ
        selector.register(self.sock, self.events, self)

    def send(self, line: bytes) -> None:
        self.wbuf += line

    def flush(self) -> None:
        """Write what the socket takes now; watch for writability if not all."""
        if self.wbuf:
            try:
                del self.wbuf[:self.sock.send(self.wbuf)]
            except BlockingIOError:
                pass
        events = selectors.EVENT_READ | (selectors.EVENT_WRITE if self.wbuf else 0)
        if events != self.events:
            self.selector.modify(self.sock, events, self)
            self.events = events

    def lines(self):
        """Complete lines read now, each with the perf_counter time the
        kernel stamped on the read that completed it.  When one read takes
        several answers, they all carry the stamp of the latest."""
        chunk, ancillary, _, _ = self.sock.recvmsg(1 << 16, socket.CMSG_SPACE(16))
        if not chunk:
            raise ConnectionError("server closed the connection")
        received = time.perf_counter()
        for level, kind, data in ancillary:
            if level == socket.SOL_SOCKET and kind == SO_TIMESTAMPNS:
                seconds, nanoseconds = struct.unpack("qq", data[:16])
                received = (seconds * 1_000_000_000 + nanoseconds - self.offset_ns) / 1e9
        self.rbuf += chunk
        while True:
            end = self.rbuf.find(b"\n")
            if end < 0:
                return
            line = bytes(self.rbuf[:end])
            del self.rbuf[:end + 1]
            yield line, received

    def close(self) -> None:
        self.selector.unregister(self.sock)
        self.sock.close()


class Client:
    """Sends timeline requests under the session rules and books the answers.

    The saturation phase replays the timeline more than once; replay
    ``epoch`` shifts session ids and request ids past every earlier replay,
    so no id repeats on one server.
    """

    def __init__(self, port: int, timeline, connections: int) -> None:
        self.session_stride = 1 + max(t.request.session for t in timeline)
        self.id_stride = 1 + max(t.request.request_id for t in timeline)
        self.selector = selectors.DefaultSelector()
        self.lanes = [Lane(port, self.selector) for _ in range(connections)]
        self.sessions: dict[int, str] = {}     # session -> pending/open/closed/refused
        self.deferred: dict[int, list] = {}
        self.decisions: dict[str, int] = {}
        self.sent = self.answered = self.errors = self.backpressure = 0
        self.skipped_after_end = 0
        self.latencies: list[float] = []
        #: Send time of each answered request, in step with ``latencies``.
        self.sent_at: list[float] = []
        self.lateness: list[float] = []
        self.flow: list[tuple[float, int]] = []
        self.codec_s = 0.0
        self.classifier = ResumeClassifier()

    @property
    def outstanding(self) -> int:
        return sum(len(lane.pending) for lane in self.lanes)

    def waits_for_verdict(self, timed, epoch: int) -> bool:
        """True when ``timed`` follows a start whose verdict is still out."""
        session = timed.request.session + epoch * self.session_stride
        return (timed.request.kind != "session_start"
                and self.sessions.get(session) == "pending")

    def offer(self, timed, due: float, epoch: int = 0) -> None:
        """Send one timeline request if the session rules allow it."""
        request = timed.request
        session = request.session + epoch * self.session_stride
        state = self.sessions.get(session)
        if request.kind == "session_start":
            self.sessions[session] = "pending"
        elif state == "pending":
            self.deferred.setdefault(session, []).append((timed, due, epoch))
            return
        elif state == "closed":
            self.skipped_after_end += 1
            return
        elif state != "open":
            return  # the session was refused: a real client sends nothing
        elif request.kind == "session_end":
            self.sessions[session] = "closed"
        self._send(timed, due, session, request.request_id + epoch * self.id_stride)

    def _send(self, timed, due: float, session: int, wire_id: int) -> None:
        request = timed.request
        started = time.perf_counter()
        body = {"id": wire_id, "kind": request.kind, "session": session}
        if request.movie >= 0:
            body["movie"] = request.movie
        if request.duration > 0.0:
            body["duration"] = request.duration
        line = (json.dumps(body) + "\n").encode()
        now = time.perf_counter()
        self.codec_s += now - started
        lane = self.lanes[request.session % len(self.lanes)]
        lane.pending[wire_id] = (timed, now, session)
        lane.send(line)
        self.sent += 1
        self.flow.append((now, 1))
        self.lateness.append(now - due)

    def _verdict(self, session: int, admitted: bool) -> None:
        self.sessions[session] = "open" if admitted else "refused"
        for timed, due, epoch in self.deferred.pop(session, ()):
            if admitted:
                self.offer(timed, due, epoch)

    def _answer(self, lane: Lane, line: bytes, received: float) -> None:
        started = time.perf_counter()
        answer = json.loads(line)
        self.codec_s += time.perf_counter() - started
        if answer["id"] == SCRAPE_ID:
            self.scrape_body = answer.get("body", "")
            return
        timed, sent_at, session = lane.pending.pop(answer["id"])
        request = timed.request
        decision = answer["decision"]
        self.answered += 1
        self.flow.append((received, -1))
        self.latencies.append(received - sent_at)
        self.sent_at.append(sent_at)
        self.decisions[decision] = self.decisions.get(decision, 0) + 1
        self.errors += decision == "error"
        self.backpressure += decision == "backpressure"
        self.classifier.observe(timed.at_minutes, session, request.kind, decision,
                                movie=request.movie, wait_minutes=answer.get("wait_minutes"))
        if request.kind == "session_start":
            self._verdict(session, decision in ("admit", "batch"))

    def poll(self, timeout: float) -> None:
        for lane in self.lanes:
            lane.flush()
        for key, events in self.selector.select(max(0.0, timeout)):
            lane = key.data
            if events & selectors.EVENT_WRITE:
                lane.flush()
            if events & selectors.EVENT_READ:
                for line, received in lane.lines():
                    self._answer(lane, line, received)

    def drain(self) -> None:
        """Wait (bounded) for every outstanding answer."""
        deadline = time.perf_counter() + DRAIN_TIMEOUT
        while self.outstanding and time.perf_counter() < deadline:
            self.poll(deadline - time.perf_counter())

    def scrape(self) -> None:
        """Read the server's Prometheus exposition over the first connection
        into :attr:`exposition`."""
        self.scrape_body = None
        line = json.dumps({"id": SCRAPE_ID, "kind": "metrics"}) + "\n"
        self.lanes[0].send(line.encode())
        deadline = time.perf_counter() + DRAIN_TIMEOUT
        while self.scrape_body is None and time.perf_counter() < deadline:
            self.poll(deadline - time.perf_counter())
        if self.scrape_body is None:
            raise RuntimeError("metrics scrape went unanswered")
        self.exposition = parse_exposition(self.scrape_body)

    def close(self) -> None:
        for lane in self.lanes:
            lane.close()
        self.selector.close()


def paced_phase(client: Client, timeline, seconds: float, speed: HostSpeed,
                server: ServerProcess, spinner=None) -> list[tuple[float, float]]:
    """Open loop: each request is due at its trace time, scaled by ``SPEEDUP``.

    The client polls its sockets without sleeping: it has a CPU to itself,
    and one that never idles sends on time without waiting for the
    hypervisor to wake it.  Answers carry the kernel's receive stamp, so
    when the client reads them does not matter.

    Calibration slices on the server's CPU run in gaps of at least
    ``SLICE_ROOM_S`` before the next due time while no request is
    outstanding, so they never take the CPU from a busy server, and with
    the ``spinner`` process (``idle_spin.py``) stopped, so they have the CPU
    to themselves.  Every ``CPU_SAMPLE_S`` the client reads the server's CPU
    time; returns those ``(perf_counter, server CPU seconds)`` samples."""
    def slices(run) -> None:
        if spinner is not None:
            os.kill(spinner.pid, signal.SIGSTOP)
        try:
            run()
        finally:
            if spinner is not None:
                os.kill(spinner.pid, signal.SIGCONT)

    def sample() -> tuple[float, float]:
        return time.perf_counter(), server.run_seconds()

    base = timeline[0].at_minutes
    slices(speed.burst)
    samples = [sample()]
    start = time.perf_counter() + 0.05
    end = start + seconds
    scale = 60.0 / SPEEDUP
    for timed in timeline:
        due = start + (timed.at_minutes - base) * scale
        if due > end:
            break
        while True:
            now = time.perf_counter()
            if now >= due:
                break
            if due - now >= SLICE_ROOM_S and not client.outstanding and speed.due():
                slices(speed.mark)
            if now - samples[-1][0] >= CPU_SAMPLE_S:
                samples.append(sample())
            client.poll(0.0)
        client.offer(timed, due)
        client.poll(0.0)
    while client.outstanding and time.perf_counter() < end + DRAIN_TIMEOUT:
        client.poll(CPU_SAMPLE_S)
        samples.append(sample())
    client.drain()
    slices(speed.burst)
    return samples


def saturation_phase(client: Client, timeline, seconds: float, speed: HostSpeed,
                     server: ServerProcess) -> tuple[int, float, float, float]:
    """Closed loop on one connection, in timeline order, replaying the
    timeline as often as needed: the client writes a batch of ``WINDOW``
    requests at once and waits for every answer before the next batch.  A
    batch ends early at a request whose session's start is in the same
    batch, so batches, and with them the server's reads and its work per
    request, are the same on every run of a seed however fast the client is.

    The phase runs in bursts of ``BURST_S``; after each the client drains
    its window and runs a calibration slice on the now idle server CPU, so
    each burst's server CPU time can be scaled by the host speed around it.
    Returns (answers, wall seconds, server CPU seconds, scaled server CPU
    seconds) over the bursts.

    Throughput is counted against the server's CPU time rather than the
    wall clock: while the server waits for its CPU (another tenant of the
    host has it) or for the client, the wall clock runs on but the server
    does no work, and neither says anything about the server.

    A request behind an open start verdict waits for it rather than being
    sent out of order, so the server sees the same request sequence on
    every run of a seed.
    """
    cursor = epoch = 0
    answered = 0
    wall = cpu = scaled = 0.0
    speed.mark()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        started = time.perf_counter()
        cpu_before = server.run_seconds()
        before = client.answered
        stop = min(started + BURST_S, deadline)
        while time.perf_counter() < stop:
            offered = 0
            while offered < WINDOW and not client.waits_for_verdict(timeline[cursor], epoch):
                client.offer(timeline[cursor], time.perf_counter(), epoch)
                offered += 1
                cursor += 1
                if cursor == len(timeline):
                    cursor, epoch = 0, epoch + 1
            client.drain()
        ended = time.perf_counter()
        burst_cpu = server.run_seconds() - cpu_before
        speed.mark()
        answered += client.answered - before
        wall += ended - started
        cpu += burst_cpu
        scaled += burst_cpu * scale_factor(speed.marks, started, ended)
    return answered, wall, cpu, scaled


class Pass:
    """Both phases against fresh servers, traced or not.

    The paced server runs at ``SPEEDUP``.  The saturation server runs at the
    server's default ``--speedup`` (one service minute per wall second), so
    no control tick falls inside its window and it measures the socket and
    decision path at capacity.

    An untraced paced phase is run again, on a fresh server, up to
    ``PACED_ATTEMPTS`` times in all while the server got less than
    ``AVAILABILITY_FLOOR`` of the wall time it was busy for (see
    :meth:`availability`): then the host lent the server's CPU to other
    tenants for much of the phase, and an open loop that keeps sending at
    the trace's pace piles up a queue no later fix can take back out.  The
    attempt with the best availability is measured; every attempt is
    checked.
    """

    def __init__(self, timeline, seconds: float, out_dir: Path, traced: bool,
                 speed: HostSpeed) -> None:
        label = "traced" if traced else "plain"
        self.speed = speed
        self.spans_paths = [out_dir / f"spans-serve-{phase}.jsonl" if traced else None
                            for phase in ("paced", "saturation")]
        self.setup_samples = []
        self.raw_setup_samples = []
        self.attempts = []
        for _ in range(1 if traced else PACED_ATTEMPTS):
            client, server = self._phase(
                f"{label}-paced", self.spans_paths[0], SPEEDUP, timeline, CONNECTIONS,
                lambda client, server, spinner: self._pace(client, server, spinner, timeline,
                                                           seconds * PACED_SHARE),
                out_dir, spin=True)
            availability = self.availability(client, self.cpu_samples)
            self.attempts.append((availability, client, server, self.cpu_samples,
                                  self.spin_gaps))
            if availability >= AVAILABILITY_FLOOR:
                break
        _, self.paced, self.paced_server, self.cpu_samples, self.spin_gaps = max(
            self.attempts, key=lambda attempt: attempt[0])
        self.saturation, self.saturation_server = self._phase(
            f"{label}-saturation", self.spans_paths[1], None, timeline, 1,
            lambda client, server, _: self._saturate(client, server, timeline,
                                                     seconds * (1 - PACED_SHARE)),
            out_dir)

    def _pace(self, client, server, spinner, timeline, seconds: float) -> None:
        self.cpu_samples = paced_phase(client, timeline, seconds, self.speed, server, spinner)

    def _saturate(self, client, server, timeline, seconds: float) -> None:
        self.saturated, self.window_s, self.raw_cpu_s, self.cpu_s = saturation_phase(
            client, timeline, seconds, self.speed, server)

    def _phase(self, label, spans_path, speedup, timeline, connections, drive, out_dir,
               spin=False):
        """Start a server, drive it, scrape it, stop it.  With ``spin``, the
        server's CPU is kept out of idle while the client drives it
        (``idle_spin.py``), and the spinner's gaps go to :attr:`spin_gaps`."""
        server = ServerProcess(out_dir, label, self.speed, spans_path, speedup=speedup)
        self.setup_samples.append(server.setup_s)
        self.raw_setup_samples.append(server.raw_setup_s)
        client = spinner = None
        gaps_path = out_dir / f"gaps-{label}.json"
        if spin:
            self.spin_gaps = []
        try:
            if spin and SERVER_CPUS is not None:
                spinner = subprocess.Popen([sys.executable, str(HERE / "idle_spin.py"),
                                            str(min(SERVER_CPUS)), str(gaps_path)])
            client = Client(server.port, timeline, connections)
            drive(client, server, spinner)
            if spinner is not None:
                spinner.send_signal(signal.SIGTERM)
                spinner.wait(timeout=STOP_TIMEOUT)
                self.spin_gaps = json.loads(gaps_path.read_text())
            client.scrape()
        finally:
            if spinner is not None and spinner.poll() is None:
                spinner.kill()  # also ends it while stopped
                spinner.wait()
            if client is not None:
                client.close()
            shutdown = server.stop()
        return client, shutdown

    @staticmethod
    def availability(client: Client, cpu_samples) -> float:
        """Share of the wall time the server spent on its CPU while it was
        busy: over the paced requests that waited ``BUSY_WAIT_S`` or more
        (each waited behind work the server was doing all along), server
        CPU time in flight over wall time in flight; 1.0 without such
        requests."""
        times = [t for t, _ in cpu_samples]
        cpu = [c for _, c in cpu_samples]
        ran = flown = 0.0
        for flight, sent in zip(client.latencies, client.sent_at):
            if flight >= BUSY_WAIT_S:
                ran += interpolate(times, cpu, sent + flight) - interpolate(times, cpu, sent)
                flown += flight
        return ran / flown if flown else 1.0

    @property
    def clients(self):
        """Every client of the pass, discarded paced attempts included."""
        return tuple(attempt[1] for attempt in self.attempts) + (self.saturation,)

    @property
    def servers(self):
        """How every server of the pass shut down, in step with :attr:`clients`."""
        return tuple(attempt[2] for attempt in self.attempts) + (self.saturation_server,)

    @property
    def throughput_rps(self) -> float:
        """Saturation answers per scaled second of server CPU time."""
        return self.saturated / self.cpu_s

    def paced_latencies_ms(self) -> list[float]:
        """Paced latencies in milliseconds, scaled to the reference host,
        each by the slices run within ``PACED_WINDOW_S`` of the time it was
        in flight.

        A request that waited ``BUSY_WAIT_S`` or more waited behind work the
        server was doing all along (a re-plan, the queue after it); its
        latency is the server CPU time spent while it was in flight, which
        the host lending the server's CPU to other tenants does not
        stretch, as thread-time slices cannot see that loss.  A request
        answered sooner that was in flight while the host held the server's
        CPU (:func:`stolen_gaps`) is left out: it measures the host, and
        there is no server time to put in its place.  :attr:`excluded`
        counts them."""
        marks = self.speed.marks
        times = [t for t, _ in self.cpu_samples]
        cpu = [c for _, c in self.cpu_samples]
        stolen = stolen_gaps(self.spin_gaps, times, cpu)
        ends = [end for _, end in stolen]
        latencies = []
        self.excluded = 0
        for flight, sent in zip(self.paced.latencies, self.paced.sent_at):
            latency = flight
            if flight >= BUSY_WAIT_S:
                ran = interpolate(times, cpu, sent + flight) - interpolate(times, cpu, sent)
                latency = min(flight, ran)
            else:
                first = bisect.bisect_right(ends, sent)
                if first < len(stolen) and stolen[first][0] < sent + flight:
                    self.excluded += 1
                    continue
            latencies.append(latency * 1e3 * scale_factor(marks, sent, sent + flight,
                                                         window=PACED_WINDOW_S))
        return latencies

    def check(self, outcome: Outcome) -> None:
        phases = [("paced", client, server) for _, client, server, _, _ in self.attempts]
        phases.append(("saturation", self.saturation, self.saturation_server))
        for phase, client, server in phases:
            outcome.check(client.outstanding == 0,
                          f"serve {phase}: {client.outstanding} requests unanswered")
            outcome.check(client.errors == 0, f"serve {phase}: {client.errors} error answers")
            for decision, count in sorted(client.decisions.items()):
                if decision in ("backpressure", "error"):
                    continue
                served = client.exposition.value("repro_service_decisions_total",
                                                 decision=decision)
                outcome.check(served is not None and served >= count,
                              f"serve {phase}: scraped {decision}={served} < client {count}")
            outcome.check(server["drained"] and server["exit"] == 0 and not server["killed"],
                          f"serve {phase}: server exit {server['exit']}, "
                          f"drained={server['drained']}, killed={server['killed']}")


def handler_quantile_ms(scraped, q: float) -> float:
    """Nearest-rank quantile of ``repro_service_request_latency_seconds``,
    read from the scraped cumulative buckets (bucket upper bound, ms)."""
    buckets = sorted(
        (float(dict(key)["le"]), count)
        for key, count in scraped.samples["repro_service_request_latency_seconds_bucket"].items()
    )
    total = buckets[-1][1]
    for bound, count in buckets:
        if count >= q * total:
            return bound * 1e3
    return buckets[-1][0] * 1e3


def run(seed: int, seconds: float, traced: bool, out_dir: Path) -> Outcome:
    outcome = Outcome()
    if CLIENT_CPUS is not None:
        os.sched_setaffinity(0, CLIENT_CPUS)
    catalog = default_catalog(MOVIES, POPULAR, seed=CATALOG_SEED)
    started = time.perf_counter()
    trace = workload_for(catalog, ARRIVAL_RATE, HORIZON, seed)
    generate_s = time.perf_counter() - started
    started = time.perf_counter()
    timeline = compile_timeline(trace)
    compile_s = time.perf_counter() - started

    speed = HostSpeed(cpu=min(SERVER_CPUS) if SERVER_CPUS else None)
    plain = Pass(timeline, seconds, out_dir, traced=False, speed=speed)
    plain.check(outcome)
    clients = plain.clients
    outcome.attempted = sum(client.sent for client in clients)
    outcome.failed = sum(client.errors + client.backpressure + client.outstanding
                         for client in clients)
    paced = plain.paced
    outcome.notes.update(
        paced_requests=paced.sent, saturation_requests=plain.saturation.sent,
        offered_rps=paced.sent / (seconds * PACED_SHARE),
        decisions=dict(sorted(paced.decisions.items())),
        saturation_decisions=dict(sorted(plain.saturation.decisions.items())),
        server_exits=[server["exit"] for server in plain.servers],
        server_rss_mb=[round(server["rss_mb"], 1) for server in plain.servers],
        raw_throughput_rps=plain.saturated / plain.raw_cpu_s,
        wall_throughput_rps=plain.saturated / plain.window_s,
        raw_setup_s=plain.raw_setup_samples,
        median_slice_ms=speed.median_slice_s() * 1e3,
        paced_availability=[round(attempt[0], 3) for attempt in plain.attempts],
    )
    if not traced:
        outcome.setup_samples = plain.setup_samples
        for index in range(SETUP_PROBES):
            outcome.setup_samples.append(_probe_setup(out_dir, index, speed))
        latencies_ms = plain.paced_latencies_ms()
        raw_ms = [latency * 1e3 for latency in paced.latencies]
        stalls, stalled_s = detect_stalls(paced.flow)
        outcome.notes.update(raw_p50_ms=percentile(raw_ms, 0.50),
                             raw_p99_ms=percentile(raw_ms, 0.99),
                             stalls=stalls, stall_ms=stalled_s * 1e3,
                             paced_excluded=plain.excluded)
        outcome.metrics = {
            "throughput_rps": plain.throughput_rps,
            "p50_ms": percentile(latencies_ms, 0.50),
            "p99_ms": percentile(latencies_ms, 0.99),
            "peak_rss_mb": plain.saturation_server["rss_mb"],
        }
        return outcome

    from tracing import SpanRecorder, layer_metrics

    traced_pass = Pass(timeline, seconds, out_dir, traced=True, speed=speed)
    traced_pass.check(outcome)
    recorder = SpanRecorder()
    for path in traced_pass.spans_paths:
        recorder.merge(SpanRecorder.load(path))
    stalls, stalled_s = detect_stalls(paced.flow)
    answered = sum(client.answered for client in clients)
    slo_missed = sum(latency > SLO_SECONDS for latency in paced.latencies)
    outcome.layers = layer_metrics(recorder)
    outcome.layers.update({
        "server.cpu_us_per_req": sum(s["cpu_s"] for s in plain.servers) / answered * 1e6,
        "server.handler_p50_ms": handler_quantile_ms(paced.exposition, 0.50),
        "server.handler_p99_ms": handler_quantile_ms(paced.exposition, 0.99),
        "server.stalls": stalls,
        "server.stall_ms": stalled_s * 1e3,
        "server.backpressure": sum(client.backpressure for client in clients),
        "server.shutdown_tracebacks": sum(s["tracebacks"] for s in plain.servers),
        "client.codec_us": sum(c.codec_s for c in clients) / answered * 1e6,
        "client.late_p99_ms": percentile(paced.lateness, 0.99) * 1e3,
        "client.skipped_after_end": paced.skipped_after_end,
        "engine.peak_open_sessions": plain.paced_server["peak_open"],
        "workloads.generate_s": generate_s,
        "workloads.compile_s": compile_s,
        "hit_gap": hit_gap(paced.classifier.resumes,
                           model_hit_probabilities(catalog, plan_for(catalog, WAIT))),
        "fail_share": outcome.failed / outcome.attempted,
        "slo_miss_share": (slo_missed + paced.errors + paced.backpressure
                           + paced.outstanding) / paced.sent,
        "trace.overhead": plain.throughput_rps / traced_pass.throughput_rps,
        "server.paced_rss_mb": plain.paced_server["rss_mb"],
        "host.slice_ms": speed.median_slice_s() * 1e3,
    })
    outcome.notes["median_paced_ms"] = median(paced.latencies) * 1e3
    return outcome


def _probe_setup(out_dir: Path, index: int, speed: HostSpeed) -> float:
    """Start a server only to time its start-up, then stop it."""
    server = ServerProcess(out_dir, f"probe-{index}", speed)
    server.stop()
    return server.setup_s
