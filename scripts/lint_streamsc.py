#!/usr/bin/env python3
"""Project-invariant linter for streamsc.

Statically enforces repo rules that clang-tidy cannot express. Scans
`<root>/src` (never tests/, bench/, examples/ — those have their own,
looser conventions), plus README.md's references to bench programs, and
reports one `path:line: [rule] message` line per violation; exit status
1 if anything was found, 0 on a clean tree.

Rules
-----
layer-dag     The layer dependency DAG is acyclic and explicit (mirrors
              src/CMakeLists.txt): a file in src/<layer>/ may only include
              "other/..." headers when `other` is reachable from <layer>
              in the DAG. Upward or sideways includes (util -> stream,
              storage -> core, ...) are build-order violations even when
              they happen to compile.
raw-assert    No raw `assert(` (or `#include <cassert>`) in src/: use
              STREAMSC_CHECK for API-boundary preconditions (always
              armed) or STREAMSC_DCHECK for debug-only hot-loop
              invariants (util/check.h). Raw assert silently compiles
              out under NDEBUG, hiding the armed/unarmed decision.
determinism   No `rand()`, `srand()`, or `std::random_device` in src/:
              all randomness flows through util/random.h's seeded Rng so
              every solver run is replayable bit-for-bit.
engine-ptr    No non-owning `ParallelPassEngine*` members in the solver
              layers (src/core, src/api): engines bind per run via
              RunContext (the PR-5 contract). A stored engine pointer
              couples a solver object to one pool's lifetime and breaks
              AnySolver reuse across runs.
arena-ptr     No non-owning `MonotonicArena*` members in the solver
              layers (src/core, src/api): same invariant as engine-ptr —
              arenas bind per run via RunContext (or per call via an
              explicit allocator argument), never stored in configs or
              solver objects. A stored arena pointer would couple a
              reusable solver to one run's memory lifetime. (SolveSession
              *owns* its arena via unique_ptr, which the rule does not
              match.)
chrono        No direct `std::chrono` (or `#include <chrono>`) in src/
              outside util/ and obs/: wall-clock timing flows through
              util/stopwatch.h (Stopwatch) or obs/trace.h
              (TraceRecorder::NowNs). A direct clock read bypasses the
              trace/export pipeline and scatters clock choices
              (steady vs system) across layers.
counter-name  No `CounterId::Counter("engine.` literal in src/ outside
              stream/engine_context.cc: the engine.* counters are interned
              there once, and every reader goes through the
              engine_counters:: handles (stream/engine_context.h). A
              second spelling of a name can drift from the first without
              any compiler noticing.
bench-ref     Every `bench_<name>` that <root>/README.md names is a bench
              target in <root>/bench/CMakeLists.txt (an entry of
              STREAMSC_BENCHES or an add_executable), and every
              `bench_<name>.h`/`.cc` it names is a file in bench/: README
              never credits a number to a bench that no longer exists.
              Skipped when either file is missing.

Usage
-----
  scripts/lint_streamsc.py               # lint the repo this script lives in
  scripts/lint_streamsc.py --root DIR    # lint DIR/src instead (fixtures)
  scripts/lint_streamsc.py --list-rules
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

# Direct layer dependencies, mirroring src/CMakeLists.txt. The checker
# uses the transitive closure: if core may use offline and offline may
# use instance, a core file may include instance headers directly.
LAYER_DEPS = {
    "util": set(),
    "obs": {"util"},
    "instance": {"util"},
    "stream": {"obs", "instance", "util"},
    "storage": {"stream", "instance", "util"},
    "dynamic": {"storage", "stream", "instance", "obs", "util"},
    "offline": {"instance", "util"},
    "core": {"offline", "stream", "instance", "util"},
    "comm": {"stream", "instance", "util"},
    "info": {"comm", "instance", "util"},
    "api": {"core", "dynamic", "storage", "stream", "instance", "util"},
    "serve": {"api", "storage", "obs", "util"},
}

# Layers whose headers/sources must not hold engine or arena pointers
# (rules engine-ptr / arena-ptr). stream/ itself legitimately passes
# ParallelPassEngine* / MonotonicArena* through pass primitives and owns
# RunContext, so it is exempt; instance/ holds the arena binding of
# arena-backed SetSystems by design.
ENGINE_PTR_LAYERS = {"core", "api"}

SOURCE_SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
CASSERT_RE = re.compile(r"^\s*#\s*include\s+<cassert>")
ASSERT_RE = re.compile(r"(?<![_A-Za-z0-9])assert\s*\(")
RAND_RE = re.compile(r"(?<![_A-Za-z0-9])(?:s?rand\s*\(|random_device)")
ENGINE_PTR_RE = re.compile(
    r"ParallelPassEngine\s*\*\s*[A-Za-z_]\w*\s*(?:=|;|\{)")
ARENA_PTR_RE = re.compile(
    r"MonotonicArena\s*\*\s*[A-Za-z_]\w*\s*(?:=|;|\{)")
CHRONO_INCLUDE_RE = re.compile(r"^\s*#\s*include\s+<chrono>")
CHRONO_RE = re.compile(r"std\s*::\s*chrono")

# Layers that may touch std::chrono directly: util/ owns Stopwatch, obs/
# owns TraceRecorder's clock. Everything else must time through those.
CHRONO_EXEMPT_LAYERS = {"util", "obs"}

# The engine.* counter names are interned in exactly one file. The
# stripper blanks string contents, so the name is matched on the raw line
# and the call confirmed on the stripped one (which rules out comments).
ENGINE_COUNTER_RE = re.compile(r'CounterId\s*::\s*Counter\s*\(\s*"engine\.')
COUNTER_CALL_RE = re.compile(r'CounterId\s*::\s*Counter\s*\(\s*"')
ENGINE_COUNTER_HOME = pathlib.Path("stream/engine_context.cc")

# bench-ref: a bench name in README.md (a file name when it carries a
# source suffix), and the two ways bench/CMakeLists.txt declares one.
BENCH_REF_RE = re.compile(r"(?<![A-Za-z0-9_])(bench_[a-z0-9_]+)(\.(?:h|cc))?")
BENCH_LIST_RE = re.compile(r"set\(\s*STREAMSC_BENCHES\b([^)]*)\)")
BENCH_EXECUTABLE_RE = re.compile(r"add_executable\(\s*(bench_[a-z0-9_]+)")


def transitive_closure(deps: dict[str, set[str]]) -> dict[str, set[str]]:
    closure = {layer: set(direct) for layer, direct in deps.items()}
    changed = True
    while changed:
        changed = False
        for layer, reach in closure.items():
            extra = set()
            for dep in reach:
                extra |= closure.get(dep, set())
            if not extra <= reach:
                reach |= extra
                changed = True
    for layer in closure:
        closure[layer].add(layer)  # a layer may always include itself
    return closure


LAYER_CLOSURE = transitive_closure(LAYER_DEPS)


def strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Blanks out comments and string/char literals, preserving line
    structure so reported line numbers match the file. Good enough for a
    conventionally formatted C++ tree (no raw strings spanning rules)."""
    out = []
    in_block = False
    for line in lines:
        result = []
        i = 0
        n = len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end == -1:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                break
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                quote = ch
                result.append(ch)
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        i += 1
                        break
                    i += 1
                result.append(quote)
                continue
            result.append(ch)
            i += 1
        out.append("".join(result))
    return out


class Violation:
    def __init__(self, path: pathlib.Path, line: int, rule: str, msg: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.msg = msg

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.msg}"


def lint_file(path: pathlib.Path, layer: str, rel: pathlib.Path,
              counter_home: bool) -> list[Violation]:
    violations: list[Violation] = []
    try:
        raw = path.read_text(encoding="utf-8", errors="replace").split("\n")
    except OSError as err:
        return [Violation(rel, 0, "io", f"unreadable: {err}")]
    code = strip_comments_and_strings(raw)
    allowed = LAYER_CLOSURE.get(layer)
    for lineno, line in enumerate(code, start=1):
        # The stripper blanks string-literal contents, which would erase
        # the include path — match includes on the raw line, but only
        # when the stripped line is still a preprocessor directive (so a
        # commented-out include does not count).
        inc = (INCLUDE_RE.match(raw[lineno - 1])
               if line.lstrip().startswith("#") else None)
        if inc and allowed is not None:
            target = inc.group(1).split("/", 1)[0]
            if target in LAYER_DEPS and target not in allowed:
                direct = sorted(LAYER_DEPS[layer]) or ["(nothing)"]
                violations.append(Violation(
                    rel, lineno, "layer-dag",
                    f'layer "{layer}" must not include "{inc.group(1)}": '
                    f'"{target}" is not reachable from "{layer}" in the '
                    f"layer DAG (direct deps: {', '.join(direct)})"))
        if CASSERT_RE.match(line):
            violations.append(Violation(
                rel, lineno, "raw-assert",
                "#include <cassert> in src/ — use util/check.h "
                "(STREAMSC_CHECK / STREAMSC_DCHECK)"))
        if ASSERT_RE.search(line) and "static_assert" not in line:
            violations.append(Violation(
                rel, lineno, "raw-assert",
                "raw assert( in src/ — use STREAMSC_CHECK (API boundary, "
                "always armed) or STREAMSC_DCHECK (debug-only hot loop)"))
        if RAND_RE.search(line):
            violations.append(Violation(
                rel, lineno, "determinism",
                "rand()/srand()/std::random_device in src/ — all "
                "randomness must flow through util/random.h's seeded Rng"))
        if layer in ENGINE_PTR_LAYERS and ENGINE_PTR_RE.search(line):
            violations.append(Violation(
                rel, lineno, "engine-ptr",
                "ParallelPassEngine* member/variable in a solver layer — "
                "engines bind per run via RunContext "
                "(stream/stream_algorithm.h), never stored in configs"))
        if layer in ENGINE_PTR_LAYERS and ARENA_PTR_RE.search(line):
            violations.append(Violation(
                rel, lineno, "arena-ptr",
                "MonotonicArena* member/variable in a solver layer — "
                "arenas bind per run via RunContext (or per call via an "
                "allocator argument), never stored in configs"))
        if (layer not in CHRONO_EXEMPT_LAYERS
                and (CHRONO_INCLUDE_RE.match(line)
                     or CHRONO_RE.search(line))):
            violations.append(Violation(
                rel, lineno, "chrono",
                "direct std::chrono outside util//obs/ — time through "
                "util/stopwatch.h (Stopwatch) or obs/trace.h "
                "(TraceRecorder::NowNs) so clock choice and trace export "
                "stay centralized"))
        if (not counter_home and COUNTER_CALL_RE.search(line)
                and ENGINE_COUNTER_RE.search(raw[lineno - 1])):
            violations.append(Violation(
                rel, lineno, "counter-name",
                'CounterId::Counter("engine. outside '
                "stream/engine_context.cc — read the engine.* counters "
                "through the engine_counters:: handles"))
    return violations


def bench_targets(cmake: pathlib.Path) -> set[str]:
    text = "\n".join(line.split("#", 1)[0]
                     for line in cmake.read_text(encoding="utf-8").split("\n"))
    targets = set(BENCH_EXECUTABLE_RE.findall(text))
    for listed in BENCH_LIST_RE.findall(text):
        targets.update(listed.split())
    return targets


def lint_bench_refs(root: pathlib.Path) -> list[Violation]:
    readme = root / "README.md"
    cmake = root / "bench" / "CMakeLists.txt"
    if not readme.is_file() or not cmake.is_file():
        return []
    targets = bench_targets(cmake)
    violations: list[Violation] = []
    lines = readme.read_text(encoding="utf-8").split("\n")
    for lineno, line in enumerate(lines, start=1):
        for match in BENCH_REF_RE.finditer(line):
            name, suffix = match.group(1), match.group(2)
            if suffix:
                if not (root / "bench" / (name + suffix)).is_file():
                    violations.append(Violation(
                        pathlib.Path("README.md"), lineno, "bench-ref",
                        f"README names bench/{name}{suffix}, which does "
                        "not exist"))
            elif name not in targets:
                violations.append(Violation(
                    pathlib.Path("README.md"), lineno, "bench-ref",
                    f"README names {name}, which is not a bench target "
                    "in bench/CMakeLists.txt — cite what measures it "
                    "now, or drop the claim"))
    return violations


def lint_tree(root: pathlib.Path) -> list[Violation]:
    src = root / "src"
    if not src.is_dir():
        print(f"lint_streamsc: no src/ directory under {root}",
              file=sys.stderr)
        sys.exit(2)
    violations: list[Violation] = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
            continue
        rel = path.relative_to(root)
        parts = path.relative_to(src).parts
        layer = parts[0] if len(parts) > 1 else ""
        counter_home = path.relative_to(src) == ENGINE_COUNTER_HOME
        violations.extend(lint_file(path, layer, rel, counter_home))
    violations.extend(lint_bench_refs(root))
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(
        description="streamsc project-invariant linter")
    parser.add_argument(
        "--root", type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent,
        help="tree to lint (expects <root>/src); defaults to the repo")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule ids and exit")
    args = parser.parse_args()

    if args.list_rules:
        for rule in ("layer-dag", "raw-assert", "determinism", "engine-ptr",
                     "arena-ptr", "chrono", "counter-name", "bench-ref"):
            print(rule)
        return 0

    violations = lint_tree(args.root.resolve())
    for v in violations:
        print(v)
    if violations:
        print(f"lint_streamsc: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
