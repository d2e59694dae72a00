"""Documentation consistency guards.

Docs rot silently; these tests pin the cross-references: every test the
docs cite exists, every claim test is in EXPERIMENTS.md, every example the
README lists runs from the repo, every public name docs/api.md mentions is
importable, and nothing points at the retired per-figure bench files.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _read(name: str) -> str:
    return (ROOT / name).read_text()


class TestCrossReferences:
    def test_cited_tests_resolve(self):
        """Every ``tests/...py[::Class][::name]`` that ``docs/*.md``,
        DESIGN.md section 4 and EXPERIMENTS.md cite: the file exists and
        each name occurs in it. Every bare ``TestClass::test_name`` they
        cite (EXPERIMENTS.md's dated per-PR history aside, which names
        deleted tests on purpose): some file under ``tests/`` defines
        that method in that class."""
        design = _read("DESIGN.md")
        section4 = design[design.index("## 4. "):design.index("## 5. ")]
        docs = "".join(p.read_text()
                       for p in sorted((ROOT / "docs").glob("*.md")))
        experiments = _read("EXPERIMENTS.md")
        text = docs + section4 + experiments
        cited = set(re.findall(r"tests/[\w/]+\.py(?:::\w+)*", text))
        assert len(cited) > 40
        for ref in cited:
            path, *names = ref.split("::")
            assert (ROOT / path).is_file(), f"missing {path}"
            source = (ROOT / path).read_text()
            for name in names:
                assert re.search(rf"\b{name}\b", source), \
                    f"{ref}: no {name} in {path}"
        current = re.sub(r"^## [^\n]*\(PR \d+\)\n.*?(?=^## |\Z)", "",
                         experiments, flags=re.M | re.S)
        bare = set(re.findall(r"\b(Test\w+)::(test_\w+)",
                              docs + section4 + current))
        defined = {(cls.name, fn.name)
                   for path in (ROOT / "tests").rglob("test_*.py")
                   if any(f"class {c}" in path.read_text() for c, _ in bare)
                   for cls in ast.walk(ast.parse(path.read_text()))
                   if isinstance(cls, ast.ClassDef)
                   for fn in cls.body if isinstance(fn, ast.FunctionDef)}
        assert len(bare) >= 5
        assert sorted(bare - defined) == []

    def test_ci_names_every_golden(self):
        """Tier-1's comment in CI lists what it pins: every
        ``tests/data/golden_*.json`` is named there (a glob counts)."""
        import fnmatch
        named = re.findall(r"golden_[\w*]+\.json",
                           _read(".github/workflows/ci.yml"))
        goldens = sorted(p.name for p in (ROOT / "tests" / "data")
                         .glob("golden_*.json"))
        assert len(goldens) >= 11
        assert [g for g in goldens
                if not any(fnmatch.fnmatch(g, n) for n in named)] == []

    def test_readme_examples_exist(self):
        text = _read("README.md")
        listed = set(re.findall(r"`([a-z_]+\.py)`", text))
        for name in listed:
            if name == "setup.py":
                continue
            assert (ROOT / "examples" / name).exists(), f"missing {name}"

    def test_every_claim_test_is_documented(self):
        """Every claim test must appear in EXPERIMENTS.md, by its id."""
        text = _read("EXPERIMENTS.md")
        found = 0
        for path in sorted((ROOT / "tests" / "claims").glob("test_*.py")):
            for name in re.findall(r"^def (test_\w+)", path.read_text(),
                                   flags=re.M):
                found += 1
                ref = f"tests/claims/{path.name}::{name}"
                assert ref in text, f"{ref} undocumented"
        assert found >= 25

    #: What the 27 per-figure bench files, their smoke script, scale knob,
    #: plugin and JSON records were called (retired by PR 20).
    RETIRED = ("benchmarks/bench_", "run_smoke", "REPRO_SCALE",
               "--benchmark-only", "pytest-benchmark", "BENCH_")

    def test_retired_bench_fleet_is_not_cited(self):
        """``benchmarks/`` holds ``e2e/`` only, and no file outside the
        history (CHANGES.md, ROADMAP.md, ISSUE.md, EXPERIMENTS.md's dated
        per-PR sections) or the frozen ``benchmarks/e2e/`` names the fleet."""
        assert [p.name for p in (ROOT / "benchmarks").iterdir()] == ["e2e"]
        skip_dirs = {".git", ".hypothesis", ".pytest_cache", ".benchmarks",
                     ".bench_build", "__pycache__", "e2e", "repro.egg-info"}
        skip_files = {ROOT / "CHANGES.md", ROOT / "ROADMAP.md",
                      ROOT / "ISSUE.md", Path(__file__).resolve()}
        suffixes = {".md", ".py", ".toml", ".yml", ".yaml", ".sh", ".cfg",
                    ".txt", ".json", ""}
        for path in sorted(ROOT.rglob("*")):
            if not path.is_file() or path.suffix not in suffixes \
                    or path in skip_files \
                    or skip_dirs & set(path.relative_to(ROOT).parts[:-1]):
                continue
            text = path.read_text(errors="replace")
            if path == ROOT / "EXPERIMENTS.md":
                # Drop the dated sections: "## <title> (PR <n>)" up to the
                # next "## " heading.
                text = re.sub(r"^## [^\n]*\(PR \d+\)\n.*?(?=^## |\Z)", "",
                              text, flags=re.M | re.S)
            for token in self.RETIRED:
                assert token not in text, f"{token!r} in {path}"

    def test_all_examples_listed_in_readme(self):
        text = _read("README.md")
        for path in (ROOT / "examples").glob("*.py"):
            assert path.name in text, f"{path.name} not in README"

    def test_paper_map_modules_exist(self):
        """Every `repro/...py` path docs/paper-map.md cites exists."""
        text = _read("docs/paper-map.md")
        for mod in set(re.findall(r"`(repro/[a-z0-9_/]+\.py)", text)):
            assert (ROOT / "src" / mod).exists(), f"missing {mod}"

    def test_api_doc_names_importable(self):
        """Spot-check the API reference's headline symbols."""
        import repro
        for name in ("SparseLU3D", "SparseCholesky3D", "factor_3d",
                     "Machine", "Simulator",
                     "delaunay_mesh_2d", "nested_dissection",
                     "symbolic_factorize", "greedy_partition"):
            assert hasattr(repro, name), f"repro.{name} missing"
        from repro.comm.volume import (  # noqa: F401
            CompactVolume,
            DenseVolume,
            volume_for,
        )
        from repro.ordering import relax_supernodes  # noqa: F401
        from repro.parallel import (  # noqa: F401
            GridThreads,
            LevelStats,
            ParallelFallback,
            resolve_threads,
        )
        from repro.solve import condest, equilibrate  # noqa: F401
        from repro.symbolic import block_nnz_tables  # noqa: F401

    def test_api_doc_lists_exactly_the_factor_options(self):
        """The options table of docs/api.md is the dataclass, field for
        field, in order — an option cannot appear or vanish undocumented."""
        import dataclasses

        from repro.lu2d import FactorOptions
        section = _read("docs/api.md").split("## Options (`FactorOptions`)")[1]
        section = section.split("\n## ")[0]
        documented = re.findall(r"^\| `([a-z_]+)` \|", section, flags=re.M)
        assert documented == [f.name for f in dataclasses.fields(FactorOptions)]

    #: Names this repository deleted with the option/env/path they named;
    #: a survivor in the program or its reference docs is a stale pointer.
    DELETED_NAMES = (
        "REPRO_COMPILE", "REPRO_SHM", "factor_fn", "PackedBlock", "pack_view",
        "unpack_view", "compile_enabled", "shm_enabled", "_make_engine",
        "batched_schur", "batch_min_pairs", "shm_transport",
        "parallel_backend", "track_buffers", "compile_plan", "FusedTask",
        "PanelSegment", "exec_fused", "REPRO_COMPACT",
        "apply_schur_numeric", "apply_syrk_numeric", "batched_syrk_update",
        "gather_panels", "panel_offsets", "n_batched_gemms",
        "batch_fill_ratio", "format_kernel_counters", "exec_panel_factor",
        "exec_panel_bcast", "exec_schur", "export_view", "factor_3d_dense25",
        "lu3d/dense25", "lu3d.dense25", "--no-compile",
        "GridStoreView", "HomeView", "panel_numeric", "schur_numeric",
        "ShmBlockView", "add_dirty_hook", "mark_dirty",
        "suggest_grid", "GridSuggestion", "_snap_pz", "--tune-budget",
        "REPRO_FIXTURE",
        "execute_plan3d_resilient", "execute_grid_plan_resilient",
        "_MappingData", "GridCrash",
        "ShmTransport", "ShmViewHandle", "attach_views", "shm_available",
        "SHM_PREFIX", "LedgerDelta", "extract_delta", "merge_delta",
        "can_fork", "_pending_touching", "ParallelExecutor", "GridTask",
        "GridOutcome", "_worker_run", "_worker_init", "_fan_out_level",
        "grid_block_refs", "import_back", "Simulator.fork",
        "TaskArrays.records", "GridPlan.tasks", "from_records", "with_tasks",
        "schur_pair_costs", "iter_tasks", "PanelFactor", "PanelBcast",
        "SchurUpdate", "grid_plan_rank_escapes",
        "ReplicatedFactor", "BcastSpec", "replicated_factor",
        "step.replicated", "_build_replicated_level", "execute_replicated",
        "_check_replicated", "replicated_accesses", "ancestor_replication",
        "c_values", "volume_stream",
        "DissectionNode", "BlockingOptions", "blocking_signature",
        "BLOCKING_STRATEGIES", "uniform_cap_split", "blocking_options",
        "factor_2d", "factor_nodes_2d", "_factor_nodes", "lu2d/factor2d",
        "lu2d.factor2d", "factor_nodes_chol_2d", "Plan3D.of_grid",
        ".of_grid(", "fuzz_2d", "allocate_factor_storage",
        "factor_words_per_rank", ".extras", "result3",
        "panel_steps", "buffer_peak_words",
        "GlobalStoreData", "merged_blocks", "supports_zreplica",
        "GLOBAL_VIEW",
        "Accelerator", "attach_accelerator", "offload_gemm", "accel_sync",
        "accel_aware", "accel_panel_ranks", "pair_offload_words",
        "_book_offloading", "offloaded_updates", "accel_clock",
        "comm/accelerator",
        "ExecMode", "resolve_exec", "plan/execmode", "plan.execmode",
        "_factor_blocks", "ReplicaData",
        "pending_messages", "sendrecv_batch", "compute_batch",
        "reduce_pairwise", "_queues", "EventStream.computes",
        "_idle_lock", "RLock", "_prune", "_max_idle", "_give_back",
        "_borrow", "PlanEntry.lock", "cache.holds", "lock-free lookup",
        "factor_3d_merged", "factor_chol_3d", "_build_standard_reduce",
        "_build_merged_reduce", "reduction_messages", "reduction_words",
        "panel_op", "stored_rows", "block_rows", "gemm_ops", "schur_ops",
        "TRSM_COLS", "GEMM_COLS", "max_idle",
    )

    def test_no_deleted_name_survives(self):
        files = list((ROOT / "src").rglob("*.py")) \
            + list((ROOT / "docs").glob("*.md"))
        for path in files:
            text = path.read_text()
            for name in self.DELETED_NAMES:
                assert name not in text, f"{name!r} survives in {path}"

    def test_no_replication_axis(self):
        """``c > 1`` is gone: no option, no tuner axis, no CLI flag."""
        import dataclasses

        from repro.cli import build_parser
        from repro.lu2d import FactorOptions
        from repro.tune import TuneCandidate
        assert len(dataclasses.fields(FactorOptions)) == 9
        assert "c" not in {f.name for f in dataclasses.fields(TuneCandidate)}
        assert not hasattr(build_parser().parse_args(["tune", "m.mtx"]), "c")

    def test_no_process_pool(self):
        """Host parallelism is threads over the one arena: nothing under
        ``src/repro`` imports a process pool or shared memory."""
        banned = re.compile(r"multiprocessing|ProcessPoolExecutor"
                            r"|shared_memory")
        hits = [str(path.relative_to(ROOT))
                for path in (ROOT / "src" / "repro").rglob("*.py")
                if banned.search(path.read_text())]
        assert hits == []


class TestOnePlanForm:
    """A grid plan exists as task arrays only; full width vs per task is
    a choice of cut points over them, never a second plan object or a
    second task body."""

    SRC = ROOT / "src" / "repro"

    def test_no_compile_module(self):
        assert not (self.SRC / "plan" / "compile.py").exists()

    def test_no_record_view(self):
        """The analyzer reads the columns the interpreter walks: nothing
        under ``repro/verify`` imports a per-grid-task type from
        ``repro.plan.tasks`` (only the level-scope kinds and the plan
        containers), and no plan object hands out a task list."""
        from repro.plan import GridPlan, LevelStep, Plan3D, TaskArrays
        allowed = {"AncestorReduce", "GridPlan", "LevelBarrier", "Plan3D"}
        for path in (self.SRC / "verify").glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) \
                        and node.module == "repro.plan.tasks":
                    names = {a.name for a in node.names}
                    assert names <= allowed, (path.name, names - allowed)
        for cls in (TaskArrays, GridPlan, LevelStep, Plan3D):
            for name in ("records", "tasks", "iter_tasks", "with_tasks",
                         "from_records", "schur_pair_costs"):
                assert not hasattr(cls, name), f"{cls.__name__}.{name}"

    def test_only_the_monitor_selects_the_width(self):
        """No width flag is left: the walk's width follows from whether the
        resilience monitor watches — with none, the one walk hands a whole
        level to the interpreter and the interpreter runs and books it as
        one slice — and nothing outside the simulator reads its fault
        injector."""
        width = re.compile(r"\bfuse\b|\bsim\.faults\b|\bif monitor is None")
        hits = sorted(
            f"{path.relative_to(self.SRC)}: {line.split('#')[0].strip()}"
            for path in self.SRC.rglob("*.py") if path.name != "simulator.py"
            for line in path.read_text().splitlines() if width.search(line))
        assert hits == [
            "lu3d/factor3d.py: if monitor is None and parts:",
            "plan/interpret.py: if monitor is None:"]

    def test_one_task_body(self):
        """``run`` is the only function that dispatches a grid task's
        kernels and ``book`` the only one that books its events: no other
        module of ``plan/`` calls a simulator booking entry."""
        text = (self.SRC / "plan" / "interpret.py").read_text()
        assert text.count("def run(") == text.count("def book(") == 1
        for path in (self.SRC / "plan").glob("*.py"):
            if path.name != "interpret.py":
                assert not re.search(
                    r"\.(book|(compute|sendrecv|alloc|free)_batch)\(",
                    path.read_text()), path

    def test_run_executes_a_slice_of_a_bound_program(self):
        """``run`` is the numeric twin of ``book``: a slice of something
        laid out once. It looks no operand up (no ``store[`` in the
        interpreter at all) and the executor loop lives with the kernels."""
        text = (self.SRC / "plan" / "interpret.py").read_text()
        assert "store[" not in text
        body = text.split("def run(")[1].split("\ndef ")[0]
        assert "execute(" in body and "k_ptr" in body
        kernels = (self.SRC / "lu2d" / "kernels.py").read_text()
        assert kernels.count("def execute(") == 1
        # trsm / gemm_sub are "bind one op, execute it": one implementation.
        for name in ("dtrsm(", "dgemm("):
            assert kernels.count(name) == 1, name

    def test_solves_run_through_the_one_executor(self):
        """A triangular sweep is a bound kernel program too: the sweeps
        call the factorization's ``execute`` and no per-step kernel
        wrapper, and no module but the kernels calls BLAS."""
        text = (self.SRC / "solve" / "triangular.py").read_text()
        assert "execute(" in text
        assert "gemm_sub(" not in text and re.search(r"\btrsm\(", text) is None
        for path in self.SRC.rglob("*.py"):
            if path.name != "kernels.py":
                src = path.read_text()
                assert "dgemm(" not in src and "dtrsm(" not in src, path

    def test_values_enter_an_arena_only_through_the_map(self):
        """A matrix's values reach an arena by one indexed copy through a
        ``ValueMap``: its ``fill`` is the program's only indexed write into
        a buffer, ``BlockMatrix.value_map`` is where entry positions are
        computed, and outside the arena's own constructors its one caller
        is the bundle's per-structure memo, which the pipeline binds
        through (a refill, cold or warm)."""
        def per_file(pattern):
            found = {p.relative_to(self.SRC).as_posix():
                     re.findall(pattern, p.read_text())
                     for p in self.SRC.rglob("*.py")}
            return {k: v for k, v in found.items() if v}
        assert per_file(r"\bbuf\[[^\]:]*\] =") == {
            "sparse/blockmatrix.py": ["buf[self.dest] ="]}
        assert per_file(r"\w+\.value_map\(") == {
            "sparse/blockmatrix.py": ["bm.value_map(", "self.value_map("],
            "plan/replay.py": ["arena.value_map("],
            "lu3d/factor3d.py": ["bundle.value_map("] * 2}
        assert per_file(r"searchsorted\(self\._keys") == {    # entries in
            "sparse/blockmatrix.py": ["searchsorted(self._keys"] * 2}  # value_map,
        # blocks in offsets_of.
        assert per_file(r"\b(?:rebind|from_csr)\(") == {
            "sparse/blockmatrix.py": ["from_csr(", "rebind("]}

    def test_solve_books_only_through_book(self):
        """A triangular sweep is a solve plan walked and booked in one
        ``Simulator.book`` call: nothing under ``solve/`` or ``cholesky/``
        narrates events to the simulator one call at a time."""
        per_event = re.compile(r"sim\.(compute|send|recv)\(|\bbcast\(")
        for pkg in ("solve", "cholesky"):
            for path in (self.SRC / pkg).glob("*.py"):
                hit = per_event.search(path.read_text())
                assert hit is None, f"{path}: {hit.group(0)}"
        text = (self.SRC / "solve" / "triangular.py").read_text()
        assert "_sweep_down" not in text and "_sweep_up" not in text
        assert text.count("sim.book(") == 2    # whole stream, or per task

    def test_the_level_is_the_unit(self):
        """One builder, one ``assemble`` per level, one booking per level:
        ``build_3d_plan`` calls no per-grid builder, ``plan/build.py`` has
        exactly one function that calls ``TaskArrays.assemble`` (and
        ``build_grid_plan`` is that function's level of one grid), and the
        plain path of ``_execute_plan3d`` books no grid plan on its own: a
        full-width level is one part, and every part — a level, or a grid
        slice at width 1, rewinds included — goes through one call."""
        text = (self.SRC / "plan" / "build.py").read_text()
        funcs = dict(zip(re.findall(r"^def (\w+)\(", text, flags=re.M),
                         re.split(r"^def \w+\(", text, flags=re.M)[1:]))
        assert "build_grid_plan(" not in funcs["build_3d_plan"]
        assert funcs["build_3d_plan"].count("build_level(") == 1
        assert [f for f, body in funcs.items()
                if "TaskArrays.assemble(" in body] == ["build_level"]
        assert "build_level(" in funcs["build_grid_plan"]
        walk = (self.SRC / "lu3d" / "factor3d.py").read_text() \
            .split("def _execute_plan3d(")[1].split("\ndef ")[0]
        assert "for gp in step.grid_plans" not in walk
        assert "if monitor is None and parts:" in walk
        assert "parts = [step]" in walk
        assert "while gi < len(parts):" in walk
        assert walk.count("execute_grid_plan(") == 1
        assert "execute_reduces(step" in walk and "execute_reduce(" not in walk
        tasks = (self.SRC / "plan" / "tasks.py").read_text()
        for method in ("def volume(self, nranks: int)", "def fusion_stats"):
            body = tasks.split("class Plan3D")[1].split(method)[1] \
                .split("\n    def ")[0]
            assert "grid_plans" not in body, method

    def test_the_schedule_is_one_array_pass(self):
        """``build_level`` and its schedule helper loop over grids, never
        over a level's nodes: every ``for`` / comprehension walks
        ``grids``, and the only ``while`` is the helper's whole-array
        pointer jumping."""
        tree = ast.parse((self.SRC / "plan" / "build.py").read_text())
        funcs = {fn.name: fn for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef)}
        for name in ("build_level", "_schedule"):
            iters = [ast.unparse(n.iter) for n in ast.walk(funcs[name])
                     if isinstance(n, (ast.For, ast.comprehension))]
            assert all(re.match(r"(zip\()?grids\b", s) for s in iters), \
                (name, iters)
        tests = [ast.unparse(n.test) for n in ast.walk(funcs["build_level"])
                 if isinstance(n, ast.While)]
        assert tests == []
        tests = [ast.unparse(n.test) for n in ast.walk(funcs["_schedule"])
                 if isinstance(n, ast.While)]
        assert tests == ["(nxt != hop).any()"]
        assert "_schedule(" in ast.unparse(funcs["build_level"])

    def test_separator_repair_only_where_a_plane_can_leak(self):
        """``geometric_nd`` repairs a cut only under its one guard: the
        marker exists exactly when ``_unit_steps`` cannot rule a leak out."""
        text = (self.SRC / "ordering" / "nested_dissection.py").read_text()
        tree = ast.parse(text)

        def repairs(node):
            return [c for c in ast.walk(node) if isinstance(c, ast.Call)
                    and getattr(c.func, "id", None) == "repair_separator"]
        guarded = [c for node in ast.walk(tree) if isinstance(node, ast.If)
                   and ast.unparse(node.test) == "marker is not None"
                   for stmt in node.body for c in repairs(stmt)]
        assert len(repairs(tree)) == 1 and guarded == repairs(tree)
        assert "marker = None if _unit_steps(adj, coords_t) else " in text
        assert self._calls("repair_separator") == [
            "ordering/nested_dissection.py::cut",
            "ordering/nested_dissection.py::geometric_nd",
            "ordering/separators.py::fiedler_separator"]

    @staticmethod
    def _calls(name: str) -> list[str]:
        """``path::function`` of every function in ``src/repro`` calling
        ``name`` (nested functions report their own name too)."""
        src = TestOnePlanForm.SRC
        return sorted(
            f"{path.relative_to(src)}::{fn.name}"
            for path in src.rglob("*.py") if name in path.read_text()
            for fn in ast.walk(ast.parse(path.read_text()))
            if isinstance(fn, ast.FunctionDef)
            and any(isinstance(c, ast.Call) and name in (
                getattr(c.func, "id", None), getattr(c.func, "attr", None))
                for c in ast.walk(fn)))

    def test_one_execution_walk(self):
        """``_execute_plan3d`` is the one loop that executes a plan's
        levels, and the one entry ``factor_3d`` its one caller — every
        run's, merged, Cholesky and the 2D baseline (its ``Pz = 1`` run)
        included. Besides it only
        the z-replica replay (the crashed grid's own subtree) executes a
        grid plan."""
        assert self._calls("execute_grid_plan") == [
            "lu3d/factor3d.py::_execute_plan3d",
            "resilience/engine.py::_recover_zreplica"]
        assert self._calls("_execute_plan3d") == [
            "lu3d/factor3d.py::factor_3d"]
        loops = [path for path in self.SRC.rglob("*.py")
                 if re.search(r"while \w+ < len\((\w+\.)?levels\)",
                              path.read_text())]
        assert loops == [self.SRC / "lu3d" / "factor3d.py"]

    def test_a_rewind_is_a_return_value(self):
        """One place turns a crash into a resume position: the engine's
        ``before_task`` hands it to one of the two recovery policies,
        which alone build a :class:`~repro.plan.interpret.Resume`; nothing
        raises or catches a crash."""
        assert self._calls("Resume") == [
            "resilience/engine.py::_recover_restart",
            "resilience/engine.py::_recover_zreplica"]
        for policy in ("_recover_restart", "_recover_zreplica"):
            assert self._calls(policy) == [
                "resilience/engine.py::before_task"], policy
        for path in self.SRC.rglob("*.py"):
            assert not re.search(r"\bclass \w*Crash\w*\(|except \w*Crash",
                                 path.read_text()), path

    def test_no_hoist_machinery_survives(self):
        """The interleaved event stream has nothing to hoist and no size
        threshold selects a booking path."""
        for path in self.SRC.rglob("*.py"):
            for name in ("_hoist_cuts", "segs", "_SCALAR_BATCH_MAX",
                         "_small_lists"):
                assert not re.search(rf"\b{name}\b", path.read_text()), \
                    f"{name!r} survives in {path}"


class TestOneKernelLayer:
    """`repro/lu2d/kernels.py` owns the BLAS/LAPACK handles; nothing else in
    the program calls scipy's checked per-call wrappers or fetches its own."""

    SOURCES = sorted((ROOT / "src" / "repro").rglob("*.py"))
    KERNELS = ROOT / "src" / "repro" / "lu2d" / "kernels.py"

    def test_no_per_call_scipy_wrappers(self):
        banned = re.compile(r"solve_triangular|check_finite|la\.cholesky\(")
        for path in self.SOURCES:
            for no, line in enumerate(path.read_text().splitlines(), 1):
                assert not banned.search(line), f"{path}:{no}: {line.strip()}"

    def test_blas_lapack_imported_by_the_kernel_module_only(self):
        handles = re.compile(
            r"^\s*(from|import)\s+scipy\.linalg\.(blas|lapack)\b"
            r"|^\s*from\s+scipy\.linalg\s+import\s+.*\b(blas|lapack|"
            r"get_blas_funcs|get_lapack_funcs)\b", re.M)
        assert handles.search(self.KERNELS.read_text())
        for path in self.SOURCES:
            if path != self.KERNELS:
                hit = handles.search(path.read_text())
                assert hit is None, f"{path}: {hit.group(0).strip()}"

    def test_networkx_is_not_a_runtime_dependency(self):
        """No import of it remains in `src/`, so nothing declares it."""
        for path in self.SOURCES:
            assert not re.search(r"^\s*(import|from)\s+networkx", path.read_text(),
                                 flags=re.M), f"{path} imports networkx"
        deps = re.search(r"^dependencies = \[(.*)\]", _read("pyproject.toml"),
                         flags=re.M).group(1)
        assert "networkx" not in deps


class TestOrderingOnFrontiers:
    """The ordering layer walks graphs through one CSR neighbour gather in
    plain numpy: no graph library, no scipy fancy indexing of the adjacency."""

    ORDERING = sorted((ROOT / "src" / "repro" / "ordering").glob("*.py"))
    SEPARATORS = ROOT / "src" / "repro" / "ordering" / "separators.py"

    def test_ordering_imports_no_graph_library(self):
        banned = re.compile(r"^\s*(import|from)\s+(networkx|scipy\.sparse\.csgraph)"
                            r"|^\s*from\s+scipy\.sparse\s+import\s+.*\bcsgraph\b",
                            re.M)
        for path in self.ORDERING:
            hit = banned.search(path.read_text())
            assert hit is None, f"{path}: {hit.group(0).strip()}"

    def test_cli_process_loads_no_graph_library(self):
        import os
        import subprocess
        import sys
        code = ("import sys, repro.cli; print([m for m in "
                "('scipy.sparse.csgraph', 'networkx') if m in sys.modules])")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        assert out.stdout.strip() == "[]", (
            f"`import repro.cli` loaded {out.stdout.strip()}: "
            "scipy.sparse.csgraph costs 15-29 ms per cold process (it pulls "
            "scipy.sparse.linalg), more than its C BFS saves over the numpy "
            "frontier gather on one-process-per-op traffic (EXPERIMENTS.md, "
            "General-graph ordering)")

    def test_separators_have_one_neighbour_gather(self):
        text = self.SEPARATORS.read_text()
        assert len(re.findall(r"\bindices\[", text)) == 1, \
            "separators.py must read `indices[...]` in _neighbours only"
        sliced = re.search(r"\b(adj|G|Gc|sub)\[(?!\d\])", text)
        assert sliced is None, \
            f"scipy fancy indexing of the adjacency is back: {sliced.group(0)}"
        assert "@" not in re.sub(r'"""[\s\S]*?"""', "", text), \
            "no SpMV crossing test: crossings come from the gather"


class TestAnalysisAsArrays:
    """The analysis phase is array passes over the panel CSR and the parent
    array: none of these functions loops over nodes, blocks or entries (a
    loop over forests, levels or doubled parent arrays is fine), and
    ``mem_profile`` sorts ranks in the narrowest dtype."""

    SRC = ROOT / "src" / "repro"
    PINNED = (("symbolic/fill.py", "_initial_block_pattern"),
              ("symbolic/fill.py", "_check_ancestor_closure"),
              ("symbolic/symbolic_factor.py", "_compute_costs"),
              ("symbolic/symbolic_factor.py", "_row_order"),
              ("lu2d/storage.py", "node_block_arrays"),
              ("lu2d/storage.py", "kernel_flops"),
              ("tree/treeforest.py", "TreeForest.__init__"),
              ("tree/treeforest.py",
               "TreeForest._validate_ancestor_consistency"))
    #: What a loop over nodes iterates: a range over a node count, a
    #: converted array, a panel, a node list or the parent array.
    NODE_LOOP = re.compile(r"range\([^)]*\b(nb|shape|size|len)\b|\.tolist\("
                           r"|panel|\bnodes\b|\bparent\b|zip\(|enumerate\(")

    @pytest.mark.parametrize("path, qualname", PINNED)
    def test_no_loop_over_nodes(self, path, qualname):
        scope = ast.parse((self.SRC / path).read_text())
        for name in qualname.split("."):
            scope = next(n for n in ast.walk(scope) if getattr(n, "name", "")
                         == name and isinstance(n, (ast.ClassDef,
                                                    ast.FunctionDef)))
        loops = [ast.unparse(n.iter) for n in ast.walk(scope)
                 if isinstance(n, (ast.For, ast.comprehension))]
        loops += [ast.unparse(n.test) for n in ast.walk(scope)
                  if isinstance(n, ast.While)]
        assert [s for s in loops if self.NODE_LOOP.search(s)] == []

    def test_mem_profile_sort_key_is_narrow(self, monkeypatch):
        import numpy as np

        from repro.comm import stream
        keys = []
        argsort = np.argsort
        monkeypatch.setattr(stream.np, "argsort",
                            lambda a, **kw: keys.append(a.dtype)
                            or argsort(a, **kw))
        ranks = np.array([5, 1, 5, 63, 1], dtype=np.int64)
        stream.mem_profile(ranks, np.array([4., -2., -4., 1., 2.]), 64)
        assert keys == [np.uint8]


class TestPublicApiHygiene:
    def test_top_level_all_resolves(self):
        import repro
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize("pkg", [
        "repro.sparse", "repro.ordering", "repro.symbolic", "repro.tree",
        "repro.comm", "repro.lu2d", "repro.lu3d", "repro.solve",
        "repro.model", "repro.analysis", "repro.cholesky", "repro.tune",
        "repro.experiments", "repro.verify", "repro.service",
    ])
    def test_subpackage_all_resolves(self, pkg):
        mod = importlib.import_module(pkg)
        assert mod.__all__, f"{pkg} exports nothing"
        for name in mod.__all__:
            assert hasattr(mod, name), f"{pkg}.{name} missing"

    def test_no_environment_variable_readers(self):
        """No mode, path or switch of the program comes from the
        environment: ``os.environ`` / ``getenv`` appear nowhere in
        ``src/``."""
        for path in (ROOT / "src").rglob("*.py"):
            text = path.read_text()
            assert "os.environ" not in text and "getenv" not in text, path

    def test_every_module_has_docstring(self):
        for path in (ROOT / "src" / "repro").rglob("*.py"):
            tree = ast.parse(path.read_text())
            assert ast.get_docstring(tree), f"{path} lacks a module docstring"

    def test_public_functions_have_docstrings(self):
        """Every def/class reachable from a subpackage __all__ is documented."""
        for pkg in ("repro.sparse", "repro.comm", "repro.lu2d", "repro.lu3d",
                    "repro.solve", "repro.model", "repro.tree",
                    "repro.cholesky", "repro.tune", "repro.verify",
                    "repro.service"):
            mod = importlib.import_module(pkg)
            for name in mod.__all__:
                obj = getattr(mod, name)
                if callable(obj):
                    assert obj.__doc__, f"{pkg}.{name} lacks a docstring"
