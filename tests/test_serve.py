"""Service-grade battery for ``repro serve`` over a real socket.

Every test talks HTTP/1.1 to a live :class:`BackgroundServer` on an
ephemeral 127.0.0.1 port with ``http.client`` — no shortcuts through
the app object — while the server shares the test process, so the
battery can install a chaos plan, read the process-wide exec counters,
and compare digests against in-process CLI runs:

- lifecycle: submit → poll → done → result, status payloads, listing;
- malformed submissions: HTTP 400 bodies carry exactly the error text
  the CLI prints as exit-2 usage errors;
- dedupe: concurrent identical submissions execute the plan exactly
  once (asserted via the ``exec.*`` counters) while every submitter
  receives the full result; completed jobs answer resubmissions from
  the warm path;
- digest identity: a served job digests identically to the same
  RunPlan executed through ``python -m repro run`` / the scenario
  runner;
- events: chunked JSONL replay and live follow, terminal marker last;
- recovery: a worker SIGKILLed mid-job is respawned and the job still
  completes with the clean-run digest;
- process lifecycle: ``python -m repro serve --jobs 2`` as a real
  subprocess leaves no process behind after SIGTERM, SIGINT (even when
  started with SIGINT ignored) or SIGKILL.
"""

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.__main__ import main
from repro.exec.plan import RunPlan, execute
from repro.exec.supervisor import ChaosPlan, set_chaos_plan
from repro.serve import ServeConfig
from repro.serve.testing import BackgroundServer

#: Small but multi-point: two sweep points, two repetitions.
PARAMS = {"n_values": [2, 4], "repetitions": 2}
SUBMISSION = {"experiment": "figure5", "params": PARAMS, "seed": 3}

POLL_TIMEOUT = 120.0


def request(port, method, path, body=None, timeout=60.0):
    """One HTTP exchange; returns (status, parsed JSON body)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request(method, path, body=json.dumps(body) if body else None)
        response = conn.getresponse()
        payload = response.read()
        return response.status, json.loads(payload) if payload else None
    finally:
        conn.close()


def wait_done(port, job_id, timeout=POLL_TIMEOUT):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, status = request(port, "GET", f"/jobs/{job_id}")
        if status["state"] in ("done", "failed"):
            return status
        time.sleep(0.1)
    raise AssertionError(f"job {job_id} still active after {timeout}s")


def read_event_stream(port, job_id, follow=True, timeout=POLL_TIMEOUT):
    """The events endpoint as a list of parsed JSONL events."""
    suffix = "" if follow else "?follow=0"
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", f"/jobs/{job_id}/events{suffix}")
        response = conn.getresponse()
        assert response.status == 200
        body = response.read().decode("utf-8")
    finally:
        conn.close()
    return [json.loads(line) for line in body.splitlines() if line.strip()]


@pytest.fixture
def server(tmp_path):
    config = ServeConfig(
        port=0,
        jobs=1,
        cache=True,
        cache_dir=str(tmp_path / "cache"),
        work_dir=str(tmp_path / "work"),
    )
    with BackgroundServer(config) as running:
        yield running


class TestLifecycle:
    def test_submit_poll_result(self, server):
        port = server.port
        _, health = request(port, "GET", "/healthz")
        assert health["status"] == "ok"

        status_code, accepted = request(port, "POST", "/jobs", SUBMISSION)
        assert status_code == 202
        assert accepted["deduplicated"] is False
        job = accepted["job"]
        assert job["kind"] == "experiment"
        assert job["state"] in ("queued", "running")
        assert job["submission"]["experiment"] == "figure5"

        final = wait_done(port, job["id"])
        assert final["state"] == "done"
        assert final["digest"]
        assert final["stats"]["points"] == 2

        status_code, result = request(
            port, "GET", f"/jobs/{job['id']}/result"
        )
        assert status_code == 200
        assert result["digest"] == final["digest"]
        assert result["result"]["kind"] == "experiment-result"
        assert result["result"]["data"]

        _, listing = request(port, "GET", "/jobs")
        assert [j["id"] for j in listing["jobs"]] == [job["id"]]

    def test_result_conflicts_while_active_and_404s_unknown(self, server):
        port = server.port
        status_code, body = request(port, "GET", "/jobs/job-999999")
        assert status_code == 404
        assert "unknown job" in body["error"]

        _, accepted = request(port, "POST", "/jobs", SUBMISSION)
        job_id = accepted["job"]["id"]
        status_code, body = request(port, "GET", f"/jobs/{job_id}/result")
        if status_code != 200:  # may already be done on a fast machine
            assert status_code == 409
            assert job_id in body["error"]
        wait_done(port, job_id)

    def test_method_and_route_errors(self, server):
        port = server.port
        status_code, body = request(port, "POST", "/healthz", {"x": 1})
        assert status_code == 405
        status_code, body = request(port, "GET", "/nope")
        assert status_code == 404
        status_code, body = request(port, "DELETE", "/jobs")
        assert status_code == 405


class TestValidationParity:
    """HTTP 400 bodies carry the CLI's exit-2 error text verbatim."""

    def cli_error(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        return err[len("error: "):].strip()

    def test_unknown_experiment(self, server, capsys):
        status_code, body = request(
            server.port, "POST", "/jobs", {"experiment": "nope"}
        )
        assert status_code == 400
        assert body["error"] == self.cli_error(capsys, ["run", "nope"])

    def test_unknown_parameter(self, server, capsys):
        status_code, body = request(
            server.port,
            "POST",
            "/jobs",
            {"experiment": "figure5", "params": {"bogus": 1}},
        )
        assert status_code == 400
        assert body["error"] == self.cli_error(
            capsys, ["run", "figure5", "-p", "bogus=1"]
        )

    def test_bad_seed_matches_shared_validator_text(self, server):
        status_code, body = request(
            server.port,
            "POST",
            "/jobs",
            {"experiment": "figure5", "seed": 2**32},
        )
        assert status_code == 400
        # The exact string the CLI's shared seed validator prints
        # (pinned in test_cli_parity.TestSharedValidatorText).
        assert body["error"] == "seed must be in [0, 2**32), got 4294967296"

    def test_unknown_plan_key_and_malformed_json(self, server):
        status_code, body = request(
            server.port, "POST", "/jobs", {"experiment": "figure5", "x": 1}
        )
        assert status_code == 400
        assert "unknown plan key(s): 'x'" in body["error"]

        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=30)
        try:
            conn.request("POST", "/jobs", body="{not json")
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "invalid JSON body" in payload["error"]

    def test_bad_scenario_document(self, server):
        status_code, body = request(
            server.port, "POST", "/jobs", {"scenario": {"name": "x"}}
        )
        assert status_code == 400
        assert "block" in body["error"].lower()


class TestDedupe:
    def test_completed_job_answers_resubmission(self, server):
        port = server.port
        _, first = request(port, "POST", "/jobs", SUBMISSION)
        wait_done(port, first["job"]["id"])

        status_code, second = request(port, "POST", "/jobs", SUBMISSION)
        assert status_code == 200
        assert second["deduplicated"] is True
        assert second["job"]["id"] == first["job"]["id"]
        assert second["job"]["state"] == "done"
        assert second["job"]["attached"] == 1

    def test_different_plans_are_different_jobs(self, server):
        port = server.port
        _, first = request(port, "POST", "/jobs", SUBMISSION)
        other = dict(SUBMISSION, seed=4)
        _, second = request(port, "POST", "/jobs", other)
        assert second["job"]["id"] != first["job"]["id"]
        wait_done(port, first["job"]["id"])
        wait_done(port, second["job"]["id"])

    def test_concurrent_identical_submissions_execute_once(self, tmp_path):
        """The acceptance-criteria race: N submitters, one execution.

        Asserted via the exec counters: the points delta across the
        whole burst equals one run's point count, while every
        submitter still receives the full result.
        """
        config = ServeConfig(
            port=0,
            jobs=1,
            cache=True,
            cache_dir=str(tmp_path / "cache"),
            work_dir=str(tmp_path / "work"),
            concurrency=2,
        )
        with BackgroundServer(config) as server:
            port = server.port
            _, stats_before = request(port, "GET", "/stats")

            responses = [None] * 8
            barrier = threading.Barrier(len(responses))

            def submit(index):
                barrier.wait()
                responses[index] = request(port, "POST", "/jobs", SUBMISSION)

            threads = [
                threading.Thread(target=submit, args=(i,))
                for i in range(len(responses))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            job_ids = {body["job"]["id"] for _, body in responses}
            assert len(job_ids) == 1, f"expected one job, got {job_ids}"
            deduplicated = [body["deduplicated"] for _, body in responses]
            assert deduplicated.count(False) == 1
            assert deduplicated.count(True) == len(responses) - 1

            (job_id,) = job_ids
            final = wait_done(port, job_id)
            assert final["state"] == "done"
            assert final["attached"] == len(responses) - 1

            _, stats_after = request(port, "GET", "/stats")
            executed = (
                stats_after["exec"]["points"] - stats_before["exec"]["points"]
            )
            assert executed == 2  # one run's two points, exactly once

            # Every submitter can fetch the identical full result.
            digests = set()
            for _, body in responses:
                _, result = request(
                    port, "GET", f"/jobs/{body['job']['id']}/result"
                )
                digests.add(result["digest"])
                assert result["result"]["data"]
            assert digests == {final["digest"]}


class TestDigestParity:
    def test_served_digest_matches_cli_run(self, server, capsys):
        _, accepted = request(server.port, "POST", "/jobs", SUBMISSION)
        final = wait_done(server.port, accepted["job"]["id"])
        assert final["state"] == "done"

        assert main([
            "run", "figure5", "--seed", "3",
            "-p", "n_values=2,4", "-p", "repetitions=2",
        ]) == 0
        out = capsys.readouterr().out
        (digest_line,) = [
            line for line in out.splitlines() if "results digest" in line
        ]
        cli_digest = digest_line.split(":")[-1].strip()
        assert final["digest"] == cli_digest

    def test_served_scenario_matches_runner(self, server):
        document = {
            "name": "parity",
            "blocks": [
                {
                    "experiment": "figure5",
                    "params": PARAMS,
                    "axes": {"seed": [1, 2]},
                }
            ],
        }
        _, accepted = request(
            server.port, "POST", "/jobs", {"scenario": document}
        )
        final = wait_done(server.port, accepted["job"]["id"])
        assert final["state"] == "done"

        from repro.scenario import parse_scenario, run_scenario, scenario_report

        run = run_scenario(parse_scenario(document, source="test"))
        report = scenario_report(run)
        assert final["digest"] == report["aggregate_digest"]

        _, result = request(
            server.port, "GET", f"/jobs/{accepted['job']['id']}/result"
        )
        assert result["result"]["kind"] == "scenario-report"
        assert result["result"]["aggregate_digest"] == final["digest"]


class TestEventStream:
    def test_replay_and_follow(self, server):
        port = server.port
        _, accepted = request(port, "POST", "/jobs", SUBMISSION)
        job_id = accepted["job"]["id"]

        followed = read_event_stream(port, job_id, follow=True)
        kinds = [event["kind"] for event in followed]
        assert kinds[0] == "serve.job"
        assert followed[0]["state"] == "running"
        assert "exec.experiment_point" in kinds
        assert kinds[-1] == "serve.job"
        assert followed[-1]["state"] == "done"
        assert followed[-1]["digest"]

        replayed = read_event_stream(port, job_id, follow=False)
        assert replayed == followed

        final = wait_done(port, job_id)
        assert final["events"] == len(followed)


class TestRecovery:
    @pytest.mark.slow
    def test_killed_worker_recovers_with_clean_digest(self, tmp_path):
        """SIGKILL a pool worker mid-job; the served digest must still
        equal a clean serial run's."""
        clean = execute(
            RunPlan("figure5", params=PARAMS, seed=11)
        )
        config = ServeConfig(
            port=0,
            jobs=2,
            cache=True,
            cache_dir=str(tmp_path / "cache"),
            work_dir=str(tmp_path / "work"),
        )
        set_chaos_plan(ChaosPlan(kill_workers=1, seed=11))
        try:
            with BackgroundServer(config) as server:
                port = server.port
                _, accepted = request(
                    port, "POST", "/jobs", dict(SUBMISSION, seed=11)
                )
                final = wait_done(port, accepted["job"]["id"])
        finally:
            set_chaos_plan(None)
        assert final["state"] == "done"
        assert final["digest"] == clean.digest
        assert final["stats"]["worker_deaths"] >= 1


class TestFaultJobRetries:
    """``--retries`` governs fault-plan jobs too, not only plain ones."""

    @pytest.mark.parametrize("retries", [0, 3])
    def test_fault_job_uses_configured_retries(
        self, tmp_path, monkeypatch, retries
    ):
        from repro.serve import app
        from repro.serve.jobs import Job

        captured = []

        def capture(plan):
            captured.append(plan)
            raise RuntimeError("captured")

        monkeypatch.setattr(app, "execute", capture)
        service = app.ExperimentService(
            ServeConfig(port=0, retries=retries, work_dir=str(tmp_path))
        )
        try:
            plan = RunPlan("figure5", params=PARAMS, fault_plan="stragglers")
            with pytest.raises(RuntimeError, match="captured"):
                service._run_plan(Job("j1", "experiment", "0" * 64, {}), plan)
        finally:
            service.shutdown()
        assert captured[0].faults.max_retries == retries


# -- process lifecycle of ``python -m repro serve`` ---------------------


def descendants(root):
    """Pids of every live process below ``root``, read from /proc."""
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="utf-8") as handle:
                # "pid (comm) state ppid ..." -- comm may hold spaces.
                state, ppid = handle.read().rsplit(")", 1)[1].split()[:2]
        except OSError:
            continue
        if state != "Z":
            children.setdefault(int(ppid), []).append(int(entry))
    found, frontier = [], [root]
    while frontier:
        below = children.get(frontier.pop(), [])
        found.extend(below)
        frontier.extend(below)
    return found


def alive(pid):
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
class TestProcessLifecycle:
    """A served ``--jobs 2`` job forks two pool workers; however the
    server goes down, none of its descendants may outlive it."""

    def run_one_job(self, tmp_path, preexec_fn=None):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--jobs", "2",
             "--port", "0", "--cache-dir", str(tmp_path / "cache"),
             "--work-dir", str(tmp_path / "work")],
            stdout=subprocess.PIPE, env=env, preexec_fn=preexec_fn,
        )
        try:
            # "repro serve listening on http://127.0.0.1:<port> (...)"
            line = proc.stdout.readline().decode()
            port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
            _, accepted = request(port, "POST", "/jobs", SUBMISSION)
            assert wait_done(port, accepted["job"]["id"])["state"] == "done"
            workers = descendants(proc.pid)
            assert len(workers) >= 2, "the job never started the worker pool"
        except BaseException:
            self.assert_all_gone(proc, descendants(proc.pid), signal.SIGKILL,
                                 -signal.SIGKILL)
            raise
        return proc, workers

    def assert_all_gone(self, proc, workers, signum, exit_code):
        try:
            proc.send_signal(signum)
            assert proc.wait(timeout=30) == exit_code
            deadline = time.monotonic() + 5.0
            while any(alive(pid) for pid in workers):
                assert time.monotonic() < deadline, (
                    f"left running: {[p for p in workers if alive(p)]}"
                )
                time.sleep(0.1)
        finally:
            for pid in [proc.pid] + workers:
                if alive(pid):
                    os.kill(pid, signal.SIGKILL)
            proc.wait()
            proc.stdout.close()

    @pytest.mark.slow
    def test_sigterm_reaps_pool_workers(self, tmp_path):
        proc, workers = self.run_one_job(tmp_path)
        self.assert_all_gone(proc, workers, signal.SIGTERM, 143)

    @pytest.mark.slow
    def test_sigint_stops_a_server_started_with_sigint_ignored(self, tmp_path):
        proc, workers = self.run_one_job(
            tmp_path, lambda: signal.signal(signal.SIGINT, signal.SIG_IGN)
        )
        self.assert_all_gone(proc, workers, signal.SIGINT, 130)

    @pytest.mark.slow
    def test_workers_exit_after_the_server_is_killed(self, tmp_path):
        proc, workers = self.run_one_job(tmp_path)
        self.assert_all_gone(proc, workers, signal.SIGKILL, -signal.SIGKILL)
