"""Span tracing of the ``expertmix`` layers from outside the library.

``install`` replaces every public function of the library modules with a
timing wrapper, in each module namespace where a caller looks the name
up (``expertmix.harness.runner.dfa_step``, ``expertmix.defensive.
choose_forecast``, ...).  A few results are wrapped as well, because the
work they do happens later, through callables:

* the ``Game`` returned by ``builtin_game`` gets wrapped loss,
  substitution, proper-loss and membership callables (``losses.game.*``);
* the q evaluators returned by ``standard_qfun`` become ``defensive.q``
  spans, and the qfun another module passes to ``dfa_solve_binary`` or
  ``dfa_solve_simplex`` becomes ``<caller>.q`` (``extensions.q`` is the
  evaluator q);
* experts and reality from ``harness.strategies`` get ``strategies.advise``
  and ``strategies.pick`` spans, and ``secondguess._sg_transform``'s map
  becomes ``secondguess.transform``;
* ``ProperLoss.__call__`` is patched on the class (``losses.ProperLoss``).

A span is (name, parent, start, end, run id), kept in flat arrays in memory
and written out by ``Tracer.save``.  ``uninstall`` puts every original
back.  Nothing under ``src/`` is changed.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import time
from array import array
from pathlib import Path

import numpy as np

LIBRARY_MODULES = (
    "expertmix.core", "expertmix.losses", "expertmix.aggregating",
    "expertmix.defensive", "expertmix.secondguess", "expertmix.extensions",
    "expertmix.harness.config", "expertmix.harness.strategies",
    "expertmix.harness.runner", "expertmix.harness.audit",
    "expertmix.harness.scenarios",
)
#: namespaces that hold names imported from the library modules
NAMESPACES = LIBRARY_MODULES + ("expertmix", "expertmix.harness")

GAME_CALLABLES = ("loss", "substitution", "proper_loss", "membership_gap",
                  "hull_membership_gap", "hull_proper_loss",
                  "boundary_proper_loss", "entropy", "feasible_interval")
SOLVERS = ("dfa_solve_binary", "dfa_solve_simplex")


def short_name(module: str) -> str:
    """``expertmix.harness.runner`` -> ``runner``; the layer of a span."""
    return module.rsplit(".", 1)[-1]


class Tracer:
    """In-memory span store plus the few counters spans cannot carry."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.run_id = array("i")
        self.run = 0
        self._stack = [-1]
        self.counters = {"q_points": 0, "simplex_solves": 0, "center_hits": 0,
                         "slack_exceeded": 0}
        self._last_slack_exc = None
        self._patches: list[tuple[object, str, object]] = []
        #: span name -> (file, first line, name) of the code it times, the
        #: key ``cProfile`` uses for the same function
        self.code_keys: dict[str, set[tuple[str, int, str]]] = {}

    def __len__(self) -> int:
        return len(self.name_id)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, on_return=None, on_call=None):
        """Wrap ``fn`` so that each call records one span named ``name``.
        ``on_call(args)`` may replace the arguments, ``on_return(result,
        args)`` the result; both see the call inside the span."""
        from expertmix.errors import SlackExceeded

        nid = self._id(name)
        code = getattr(getattr(fn, "__func__", fn), "__code__", None)
        if code is not None:
            self.code_keys.setdefault(name, set()).add(
                (code.co_filename, code.co_firstlineno, code.co_name))
        name_ids, parents, starts, ends, runs = (
            self.name_id, self.parent, self.start, self.end, self.run_id)
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(nid)
            parents.append(stack[-1])
            runs.append(tracer.run)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                if on_call is not None:
                    args = on_call(args)
                out = fn(*args, **kwargs)
                return out if on_return is None else on_return(out, args)
            except SlackExceeded as exc:
                if exc is not tracer._last_slack_exc:
                    tracer._last_slack_exc = exc
                    tracer.counters["slack_exceeded"] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper._bench_span = name
        return wrapper

    # -- result wrappers -------------------------------------------------

    def _q(self, name: str, fn):
        counters = self.counters

        def count_points(args):
            arr = np.asarray(args[0]) if args else None
            counters["q_points"] += int(arr.shape[0]) if arr is not None and arr.ndim == 2 else 1
            return args

        return self.span(name, fn, on_call=count_points)

    def _game(self, game, args=None):
        fields = {f: self.span(f"losses.game.{f}", getattr(game, f))
                  for f in GAME_CALLABLES if getattr(game, f) is not None}
        return dataclasses.replace(game, **fields)

    def _qfun_pair(self, out, args=None):
        qrow, qbatch = out
        return self._q("defensive.q", qrow), self._q("defensive.q", qbatch)

    def _solver(self, func: str, fn, caller: str):
        counters = self.counters
        wrap_q = caller != "defensive"

        def on_call(args):
            if wrap_q and args and not hasattr(args[0], "_bench_span"):
                args = (self._q(f"{caller}.q", args[0]),) + tuple(args[1:])
            return args

        def on_return(out, args):
            if func == "dfa_solve_simplex":
                counters["simplex_solves"] += 1
                center = np.full(len(out), 1.0 / len(out))
                counters["center_hits"] += int(np.array_equal(out, center))
            return out

        return self.span(f"defensive.{func}", fn, on_return=on_return,
                         on_call=on_call)

    def _expert(self, expert, args=None):
        if dataclasses.is_dataclass(expert):  # a second-guessing expert
            return dataclasses.replace(
                expert, fn=self.span("strategies.advise", expert.fn))
        expert.advise = self.span("strategies.advise", expert.advise)
        return expert

    def _reality(self, reality, args=None):
        reality.pick = self.span("strategies.pick", reality.pick)
        return reality

    # -- installation ----------------------------------------------------

    def _patch(self, obj, attr: str, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self) -> None:
        """Wrap every public library function where its callers find it."""
        modules = {n: importlib.import_module(n) for n in NAMESPACES}
        on_return = {
            "builtin_game": self._game,
            "standard_qfun": self._qfun_pair,
            "build_standard_expert": self._expert,
            "build_sg_expert": self._expert,
            "build_reality": self._reality,
            "_sg_transform": lambda out, args: self.span("secondguess.transform", out),
        }
        wrappers: dict[object, object] = {}
        origin: dict[object, tuple[str, str]] = {}
        for modname in LIBRARY_MODULES:
            mod = modules[modname]
            for name, obj in vars(mod).items():
                if not (inspect.isfunction(obj) and obj.__module__ == modname):
                    continue
                if name.startswith("_") and name not in on_return:
                    continue
                layer = short_name(modname)
                origin[obj] = (layer, name)
                wrappers[obj] = self.span(f"{layer}.{name}", obj,
                                          on_return=on_return.get(name))
        for modname, mod in modules.items():
            caller = short_name(modname)
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj not in wrappers:
                    continue
                layer, name = origin[obj]
                if layer == "defensive" and name in SOLVERS:
                    value = self._solver(name, obj, caller)
                else:
                    value = wrappers[obj]
                self._patch(mod, attr, value)
        losses = modules["expertmix.losses"]
        self._patch(losses.ProperLoss, "__call__",
                    self.span("losses.ProperLoss", losses.ProperLoss.__call__))

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    def save(self, path: Path) -> None:
        """Write every span recorded so far (nanosecond clock)."""
        np.savez(path, names=np.array(self.names), name_id=np.array(self.name_id),
                 parent=np.array(self.parent), start_ns=np.array(self.start),
                 end_ns=np.array(self.end), run_id=np.array(self.run_id))


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced repeat


class SpanTable:
    """Spans ``[lo, hi)`` of a tracer as arrays, with self times."""

    def __init__(self, tracer: Tracer, lo: int, hi: int) -> None:
        self.names = tracer.names
        # copies: a numpy view would pin the growing arrays' buffers
        nid = np.array(tracer.name_id[lo:hi])
        self.nid = nid
        parent = np.array(tracer.parent[lo:hi]) - lo
        parent[parent < 0] = -1
        self.parent = parent
        self.start = np.array(tracer.start[lo:hi])
        self.dur = np.array(tracer.end[lo:hi]) - self.start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=self.dur[has_parent],
                            minlength=len(nid))
        self.self_ns = self.dur - child
        self.layer = np.array([n.split(".", 1)[0] for n in self.names])[nid] \
            if len(nid) else np.array([], dtype=str)
        # the protocol rounds start with the first expert advice or Reality
        # pick; spans that ended before that are session set-up
        rounds = self.start[self.mask("strategies.advise", "strategies.pick")]
        self.in_rounds = self.start + self.dur >= (rounds.min() if len(rounds) else np.inf)

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.nid, ids)

    def outermost(self, *names: str) -> np.ndarray:
        """Spans named in ``names`` with no ancestor of those names."""
        hit = self.mask(*names)
        inside = np.zeros(len(hit), dtype=bool)  # some ancestor is a hit
        has_parent = self.parent >= 0
        anc = np.where(has_parent, self.parent, 0)
        cover = hit.copy()
        # each pass reaches one level deeper, so this ends within the
        # nesting depth
        while True:
            new = has_parent & cover[anc]
            if np.array_equal(new, inside):
                break
            inside = new
            cover = hit | inside
        return hit & ~inside

    def parent_is(self, name: str) -> np.ndarray:
        """Spans whose direct parent is named ``name``."""
        is_name = self.mask(name)
        return (self.parent >= 0) & is_name[np.where(self.parent >= 0, self.parent, 0)]

    def total_s(self, mask: np.ndarray) -> float:
        return float(self.dur[mask].sum()) * 1e-9

    def self_s(self, mask: np.ndarray) -> float:
        return float(self.self_ns[mask].sum()) * 1e-9

    def step_us(self) -> np.ndarray:
        """Per-step wall times: the gaps between successive Reality picks
        (one pick per protocol round)."""
        return np.diff(self.start[self.mask("strategies.pick")]) * 1e-3
