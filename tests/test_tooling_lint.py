"""Per-module rules of the static checker (FB102-FB109), case by case.

Every case runs one source string through ``analyze_sources`` at a path
that sets its scope.  The cases of the retired per-file lint codes fire
under their replacements: FB100 (syntax error) as FB200, FB101
(wall-clock call in sim/core/storage) as FB207, which covers every
module except ``obs/hostprof.py``.
"""

from repro.tooling.analyzer import RULES, analyze_paths, analyze_sources
from repro.tooling.report import Finding

SIM_PATH = "src/repro/sim/fake.py"
CORE_PATH = "src/repro/core/fake.py"
STORAGE_PATH = "src/repro/storage/fake.py"
OTHER_PATH = "src/repro/analysis/fake.py"


def check(source, path):
    return analyze_sources({path: source}).findings


def codes(findings):
    return [f.code for f in findings]


class TestWallclockRule:
    def test_time_time_flagged_in_sim(self):
        src = "import time\nt = time.time()\n"
        assert codes(check(src, SIM_PATH)) == ["FB207"]

    def test_perf_counter_from_import_flagged(self):
        src = "from time import perf_counter\nt = perf_counter()\n"
        assert codes(check(src, SIM_PATH)) == ["FB207"]

    def test_aliased_import_flagged(self):
        src = "from time import monotonic as mono\nt = mono()\n"
        assert codes(check(src, STORAGE_PATH)) == ["FB207"]

    def test_datetime_now_flagged(self):
        src = "from datetime import datetime\nd = datetime.now()\n"
        assert codes(check(src, SIM_PATH)) == ["FB207"]

    def test_flagged_outside_sim_layers(self):
        # FB207 covers every module but obs/hostprof.py, so the retired
        # FB101's sim/core/storage scope no longer bounds it.
        src = "import time\nt = time.time()\n"
        assert codes(check(src, OTHER_PATH)) == ["FB207"]

    def test_unrelated_time_name_not_flagged(self):
        # A local function named `time` is not the stdlib call.
        src = "def time():\n    return 0\nt = time()\n"
        assert check(src, SIM_PATH) == []


class TestBareAssertRule:
    def test_assert_flagged(self):
        src = "def f(x):\n    assert x > 0\n    return x\n"
        out = check(src, OTHER_PATH)
        assert codes(out) == ["FB102"]
        assert out[0].line == 2

    def test_raise_not_flagged(self):
        src = "def f(x):\n    if x <= 0:\n        raise ValueError(x)\n    return x\n"
        assert check(src, OTHER_PATH) == []

    def test_test_files_exempt(self):
        src = "assert 1 == 1\n"
        assert check(src, "tests/test_fake.py") == []


class TestHookPairingRule:
    def test_pre_without_post_flagged(self):
        src = (
            "class MyEngine:\n"
            "    def _pre_partition_scatter(self, rt, p, ctx):\n"
            "        pass\n"
        )
        assert codes(check(src, OTHER_PATH)) == ["FB103"]

    def test_both_hooks_clean(self):
        src = (
            "class MyEngine:\n"
            "    def _pre_partition_scatter(self, rt, p, ctx):\n"
            "        pass\n"
            "    def _post_partition_scatter(self, rt, p, ctx):\n"
            "        pass\n"
        )
        assert check(src, OTHER_PATH) == []

    def test_post_only_clean(self):
        src = (
            "class MyEngine:\n"
            "    def _post_partition_scatter(self, rt, p, ctx):\n"
            "        pass\n"
        )
        assert check(src, OTHER_PATH) == []


class TestVirtualFileRule:
    def test_direct_construction_flagged(self):
        src = "f = VirtualFile('x', dev)\n"
        assert codes(check(src, OTHER_PATH)) == ["FB104"]

    def test_attribute_construction_flagged(self):
        src = "f = vfs_module.VirtualFile('x', dev)\n"
        assert codes(check(src, OTHER_PATH)) == ["FB104"]

    def test_allowed_in_vfs_module(self):
        src = "f = VirtualFile('x', dev)\n"
        assert check(src, "src/repro/storage/vfs.py") == []

    def test_vfs_create_clean(self):
        src = "f = vfs.create('x', dev)\n"
        assert check(src, OTHER_PATH) == []


class TestClockMutationRule:
    def test_assignment_flagged(self):
        src = "clock._now = 5.0\n"
        assert codes(check(src, OTHER_PATH)) == ["FB105"]

    def test_augmented_assignment_flagged(self):
        src = "clock._iowait_time += 1.0\n"
        assert codes(check(src, OTHER_PATH)) == ["FB105"]

    def test_allowed_in_clock_module(self):
        src = "self._now = 5.0\n"
        assert check(src, "src/repro/sim/clock.py") == []

    def test_reading_not_flagged(self):
        src = "t = clock._now\n"
        assert check(src, OTHER_PATH) == []


class TestTimelineScheduleRule:
    def test_direct_schedule_flagged(self):
        src = "req = dev.timeline.schedule(submit=0, service=1, nbytes=2, kind='read')\n"
        assert codes(check(src, OTHER_PATH)) == ["FB106"]

    def test_allowed_in_device_module(self):
        src = "req = self.timeline.schedule(submit=0, service=1, nbytes=2, kind='read')\n"
        assert check(src, "src/repro/storage/device.py") == []

    def test_other_schedule_calls_clean(self):
        src = "job = scheduler.schedule(task)\n"
        assert check(src, OTHER_PATH) == []


class TestRunStateRule:
    def test_construction_flagged_outside_engine_layer(self):
        src = "rt = _RunState(graph, machine, cfg, algo)\n"
        assert codes(check(src, OTHER_PATH)) == ["FB107"]

    def test_attribute_construction_flagged(self):
        src = "rt = base._RunState(graph, machine, cfg, algo)\n"
        assert codes(check(src, OTHER_PATH)) == ["FB107"]

    def test_rt_assignment_flagged(self):
        src = "engine._rt = rt\n"
        assert codes(check(src, OTHER_PATH)) == ["FB107"]

    def test_allowed_in_engines_and_core(self):
        src = "rt = _RunState(graph, machine, cfg, algo)\nself._rt = rt\n"
        assert check(src, "src/repro/engines/session.py") == []
        assert check(src, "src/repro/core/engine.py") == []

    def test_reading_rt_not_flagged(self):
        src = "stats = engine._rt.iteration_stats\n"
        assert check(src, OTHER_PATH) == []

    def test_noqa_suppresses(self):
        src = "engine._rt = rt  # noqa: FB107\n"
        assert check(src, OTHER_PATH) == []


class TestEngineDebugIORule:
    ENGINES_PATH = "src/repro/engines/fake.py"

    def test_time_import_flagged_in_engines(self):
        out = check("import time\n", self.ENGINES_PATH)
        assert codes(out) == ["FB108"]

    def test_time_import_flagged_in_core(self):
        # The import itself is FB108, and the wall-clock call on top of
        # it is FB207.
        src = "from time import perf_counter\nt = perf_counter()\n"
        assert codes(check(src, CORE_PATH)) == ["FB108", "FB207"]

    def test_print_flagged_in_engines(self):
        src = "def f(x):\n    print(x)\n    return x\n"
        out = check(src, "src/repro/engines/graphchi/fake.py")
        assert codes(out) == ["FB108"]
        assert out[0].line == 2

    def test_print_flagged_in_core(self):
        assert codes(check("print('dbg')\n", CORE_PATH)) == ["FB108"]

    def test_allowed_outside_engine_layer(self):
        assert check("import time\nprint(time.asctime())\n", OTHER_PATH) == []

    def test_storage_layer_print_allowed(self):
        # FB108 scopes engines/core only; storage is covered by FB207.
        assert check("print('x')\n", STORAGE_PATH) == []

    def test_method_named_print_clean(self):
        src = "logger.print('x')\n"
        assert check(src, self.ENGINES_PATH) == []

    def test_noqa_suppresses(self):
        assert check("import time  # noqa: FB108\n", CORE_PATH) == []


class TestBroadExceptRule:
    ENGINES_PATH = "src/repro/engines/fake.py"

    def test_bare_except_flagged_in_engines(self):
        src = "try:\n    f()\nexcept:\n    pass\n"
        out = check(src, self.ENGINES_PATH)
        assert codes(out) == ["FB109"]
        assert out[0].line == 3

    def test_except_exception_flagged_in_core(self):
        src = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert codes(check(src, CORE_PATH)) == ["FB109"]

    def test_except_base_exception_flagged(self):
        src = "try:\n    f()\nexcept BaseException as exc:\n    raise exc\n"
        assert codes(check(src, self.ENGINES_PATH)) == ["FB109"]

    def test_broad_name_in_tuple_clause_flagged(self):
        src = "try:\n    f()\nexcept (ValueError, Exception):\n    pass\n"
        assert codes(check(src, self.ENGINES_PATH)) == ["FB109"]

    def test_typed_repro_error_clean(self):
        src = (
            "from repro.errors import CrashError, EngineError\n"
            "try:\n    f()\nexcept CrashError:\n    pass\n"
            "try:\n    f()\nexcept (EngineError, CrashError) as exc:\n"
            "    raise exc\n"
        )
        assert check(src, self.ENGINES_PATH) == []

    def test_allowed_outside_engine_layer(self):
        src = "try:\n    f()\nexcept Exception:\n    pass\n"
        assert check(src, OTHER_PATH) == []
        assert check(src, STORAGE_PATH) == []

    def test_noqa_suppresses(self):
        src = "try:\n    f()\nexcept Exception:  # noqa: FB109\n    pass\n"
        assert check(src, self.ENGINES_PATH) == []


class TestSuppression:
    def test_blanket_noqa(self):
        src = "import time\nt = time.time()  # noqa\n"
        assert check(src, SIM_PATH) == []

    def test_code_specific_noqa(self):
        for noqa in (
            "# noqa: FB207",
            "# noqa: FB207 - host stamp",
            "# noqa: FB102, FB207 - host stamp",
            "# noqa: FB102 FB207",
        ):
            src = f"import time\nt = time.time()  {noqa}\n"
            assert check(src, SIM_PATH) == [], noqa

    def test_wrong_code_noqa_still_flags(self):
        for noqa in ("# noqa: FB102", "# noqa: FB2070"):
            src = f"import time\nt = time.time()  {noqa}\n"
            assert codes(check(src, SIM_PATH)) == ["FB207"]


class TestHarness:
    def test_syntax_error_reported_not_raised(self):
        out = check("def f(:\n", OTHER_PATH)
        assert codes(out) == ["FB200"]

    def test_violation_str_format(self):
        v = Finding(path="a.py", line=3, col=1, code="FB102", message="m")
        assert str(v) == "a.py:3:1: FB102 m"

    def test_rule_catalogue_is_complete(self):
        assert set(RULES) == {
            "FB102", "FB103", "FB104", "FB105", "FB106", "FB107", "FB108",
            "FB109", "FB200", "FB201", "FB202", "FB203", "FB204", "FB205",
            "FB206", "FB207", "FB208",
        }

    def test_repo_source_tree_is_clean(self, live_analysis):
        """Acceptance gate: the shipped src/repro has no per-module finding."""
        per_module = [f for f in live_analysis.findings if f.code < "FB200"]
        assert per_module == [], "\n".join(str(f) for f in per_module)

    def test_lint_paths_on_single_file(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nassert time.time()\n")
        out = analyze_paths([str(bad)]).findings
        assert sorted(codes(out)) == ["FB102", "FB207"]
