"""In-memory span tracer that wraps lgrin's public functions from outside.

Installing the tracer replaces every public function of the traced modules,
in every lgrin module namespace that holds a reference to it, with a wrapper
that appends one span (name, start, end, parent) to flat arrays. The backward
closures handed to ``GradTape.record`` are wrapped too, so backward time is
split per op. Nothing inside ``src/`` changes; ``uninstall`` restores the
original references.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time
from array import array

import numpy as np

TRACED_MODULES = ("autodiff", "adjacency", "layers", "objective", "model",
                  "training", "data", "cli")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.nid = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []
        self.label = ""  # set by the harness around each train call
        self.steps: list[tuple[str, int, int]] = []  # (label, nodes, bytes)
        self.densities: list[float] = []  # edge density at every forward pass
        self.cells_scanned = 0
        self.cells_loaded = 0

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn):
        """``fn`` wrapped so that every call records one span."""
        return functools.wraps(fn)(self._spanned(name, fn))

    def _spanned(self, name: str, fn):
        nid = self._id(name)
        nids, parent, start, end = self.nid, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(nids)
            nids.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str):
        """A harness-level span around the enclosed block."""
        nid = self._id(name)
        idx = len(self.nid)
        self.nid.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    # -- installation ------------------------------------------------------

    def _replace(self, orig, new) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lgrin" or mod_name.startswith("lgrin.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def install(self) -> None:
        """Wrap every public function of the traced lgrin modules."""
        import lgrin.cli  # noqa: F401  (cli is not imported by the package)
        mods = {short: sys.modules[f"lgrin.{short}"] for short in TRACED_MODULES}
        hooks = {
            ("autodiff", "backward"): self._hook_backward,
            ("autodiff", "neighborhood_max"): self._hook_neighborhood_max,
            ("adjacency", "neighbor_mask"): self._hook_neighbor_mask,
            ("data", "load_dataset"): self._hook_load_dataset,
            ("cli", "main"): self._hook_cli_main,
        }
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                hook = hooks.get((short, attr))
                new = (hook(fn) if hook is not None
                       else self.spanned(f"{short}.{attr}", fn))
                self._replace(fn, new)
        tape_cls = mods["autodiff"].GradTape
        orig_record = tape_cls.record
        self._patches.append((tape_cls, "record", orig_record))
        tape_cls.record = self._hook_record(orig_record)

    def uninstall(self) -> None:
        for target, attr, orig in reversed(self._patches):
            setattr(target, attr, orig)
        self._patches.clear()

    # -- hooks: counters are taken outside the op's own span ---------------

    def _hook_record(self, orig):
        spanned = self.spanned("autodiff.record", orig)
        bwd_names: dict[str, str] = {}

        def record(tape, inputs, out_values, backward):
            qual = backward.__qualname__
            name = bwd_names.get(qual)
            if name is None:
                name = bwd_names[qual] = f"autodiff.{qual.split('.')[0]}.bwd"
            return spanned(tape, inputs, out_values, self._spanned(name, backward))

        return record

    def _hook_backward(self, orig):
        spanned = self.spanned("autodiff.backward", orig)

        def backward(loss, tape=None):
            out = spanned(loss, tape)
            t = tape if tape is not None else loss.tape
            nbytes = sum(node.output.values.nbytes for node in t.nodes)
            self.steps.append((self.label, len(t.nodes), nbytes))
            return out

        return backward

    def _hook_neighborhood_max(self, orig):
        spanned = self.spanned("autodiff.neighborhood_max", orig)

        def neighborhood_max(h, neighbor_mask):
            out = spanned(h, neighbor_mask)
            self.cells_scanned += int(np.count_nonzero(neighbor_mask)) * h.shape[1]
            return out

        return neighborhood_max

    def _hook_neighbor_mask(self, orig):
        spanned = self.spanned("adjacency.neighbor_mask", orig)

        def neighbor_mask(a_eff, threshold=0.0):
            mask = spanned(a_eff, threshold)
            m = mask.shape[0]
            density = (int(np.count_nonzero(mask)) - m) / (m * (m - 1))
            self.densities.append(density)
            return mask

        return neighbor_mask

    def _hook_load_dataset(self, orig):
        spanned = self.spanned("data.load_dataset", orig)

        def load_dataset(manifest_path):
            ds = spanned(manifest_path)
            self.cells_loaded += sum(s.features.size for s in ds.samples)
            return ds

        return load_dataset

    def _hook_cli_main(self, orig):
        by_command: dict[str, object] = {}

        def main(argv=None):
            command = argv[0] if argv else "none"
            if command not in by_command:
                by_command[command] = self.spanned(f"cli.main.{command}", orig)
            return by_command[command](argv)

        return main

    # -- analysis ------------------------------------------------------------

    def pop_counts(self) -> dict:
        """Deterministic counters gathered since the last call, then reset."""
        counts = {"steps": tuple(self.steps),
                  "densities": tuple(self.densities),
                  "cells_scanned": self.cells_scanned,
                  "cells_loaded": self.cells_loaded}
        self.steps, self.densities = [], []
        self.cells_scanned = self.cells_loaded = 0
        return counts

    def arrays(self) -> dict[str, np.ndarray]:
        return {"nid": np.asarray(self.nid, dtype=np.int64),
                "parent": np.asarray(self.parent, dtype=np.int64),
                "start": np.asarray(self.start, dtype=np.float64),
                "end": np.asarray(self.end, dtype=np.float64)}

    def _durations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(nid, duration, self time) of every span.

        A span's self time is its duration minus the durations of its direct
        children; spans are strictly nested because the run is single-threaded.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        return a["nid"], dur, dur - child

    def self_times(self, lo: int = 0) -> dict[str, tuple[int, float, float]]:
        """Per span name over the spans from index lo: (calls, inclusive s, self s)."""
        nid, dur, own = self._durations()
        nid = nid[lo:]
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        incl = np.bincount(nid, weights=dur[lo:], minlength=n)
        selfs = np.bincount(nid, weights=own[lo:], minlength=n)
        return {name: (int(calls[i]), float(incl[i]), float(selfs[i]))
                for i, name in enumerate(self.names)}

    def self_time_check(self) -> tuple[bool, float]:
        """(no self time is negative, sum of all self times).

        A span with a wrong parent shows up as a negative self time.
        """
        _, _, own = self._durations()
        return bool(np.all(own >= -1e-9)), float(own.sum())

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())
