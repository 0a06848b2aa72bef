"""The paper-suite stage table and its runner."""

import inspect

from orbitlab import suite


def test_every_stage_is_listed_once_and_takes_both_parameter_sets():
    names = [stage.name for stage in suite.STAGES]
    assert len(names) == len(set(names)) == 10
    for stage in suite.STAGES:
        for params in (stage.quick, stage.full):
            inspect.signature(stage.check).bind(7, 1000, **params)


def _stage(name, check):
    return suite.Stage(name, check, {}, {})


def test_failed_checks_and_raising_stages_are_reported_and_the_rest_still_run(monkeypatch):
    def passing(seed, samples):
        return "all good", [(True, "unused")], {"seed": seed}

    def failing(seed, samples):
        return "unused", [(False, "first broke"), (True, "unused"), (False, "third broke")], {}

    def raising(seed, samples):
        raise ZeroDivisionError("division by zero")

    stages = (_stage("a", raising), _stage("b", failing), _stage("c", passing))
    monkeypatch.setattr(suite, "STAGES", stages)
    seen = []
    report = suite.run_suite(True, 5, None, seen.append)
    assert report["stages"] == seen == [
        {"name": "a", "ok": False, "detail": "ZeroDivisionError: division by zero"},
        {"name": "b", "ok": False, "detail": "first broke; third broke"},
        {"name": "c", "ok": True, "detail": "all good", "data": {"seed": 5}},
    ]
    assert (report["samples"], report["passed"], report["failed"], report["ok"]) == (20000, 1, 2, False)
