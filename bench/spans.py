"""Span tracing around the package's public functions, installed from outside.

Each wrapper replaces a public function in the namespace of the module that
calls it (``so3embed.cli.embed``, ``so3embed.projection.embed``,
``so3embed.embedding.outer_power`` ...), so the span records who called
whom without any change inside the package.  Spans live in memory as
``[name, start, end, parent, root]`` lists; ``root`` is the span of the CLI
invocation the call belongs to, which serves as the request identifier.
``restore`` puts every original back.
"""

from __future__ import annotations

import importlib
import time
import types

LAYERS = ("cli", "so3", "tensors", "embedding", "projection", "analysis")

# (calling module, attribute it looks up, span name).  The part of the span
# name before the first dot is the layer that owns the called function.
TARGETS = (
    ("so3embed.cli", "embed", "embedding.embed"),
    ("so3embed.cli", "embedded_distance", "embedding.embedded_distance"),
    ("so3embed.cli", "registry_lookup", "embedding.registry_lookup"),
    ("so3embed.cli", "radius", "embedding.radius"),
    ("so3embed.cli", "expected_hull_dimension", "embedding.expected_hull_dimension"),
    ("so3embed.cli", "project", "projection.project"),
    ("so3embed.cli", "coset_distance", "so3.coset_distance"),
    ("so3embed.cli", "fundamental_representative", "so3.fundamental_representative"),
    ("so3embed.cli", "group_elements", "so3.group_elements"),
    ("so3embed.cli", "global_bounds", "analysis.global_bounds"),
    ("so3embed.cli", "isometry_check", "analysis.isometry_check"),
    ("so3embed.cli", "mean_check", "analysis.mean_check"),
    ("so3embed.cli", "rank_check", "analysis.rank_check"),
    ("so3embed.projection", "embed", "embedding.embed"),
    ("so3embed.projection", "radius", "embedding.radius"),
    ("so3embed.projection", "inner", "tensors.inner"),
    ("so3embed.projection", "invariant_tensor", "tensors.invariant_tensor"),
    ("so3embed.embedding", "outer_power", "tensors.outer_power"),
    ("so3embed.embedding", "invariant_tensor", "tensors.invariant_tensor"),
    ("so3embed.embedding", "tuple_norm", "tensors.tuple_norm"),
    ("so3embed.embedding", "group_elements", "so3.group_elements"),
    ("so3embed.embedding", "as_coset", "so3.as_coset"),
    ("so3embed.analysis", "radius", "embedding.radius"),
    ("so3embed.analysis", "group_elements", "so3.group_elements"),
    ("so3embed.analysis", "random_quaternions", "so3.random_quaternions"),
    ("so3embed.analysis", "quaternions_to_matrices", "so3.quaternions_to_matrices"),
    ("so3embed.analysis", "inner", "tensors.inner"),
    ("so3embed.analysis", "tuple_norm", "tensors.tuple_norm"),
    ("so3embed.analysis", "invariant_tensor", "tensors.invariant_tensor"),
    ("so3embed.analysis", "sym_coordinates", "tensors.sym_coordinates"),
    ("so3embed.analysis", "class_counts", "tensors.class_counts"),
    ("so3embed.analysis", "tensor_from_class_values", "tensors.tensor_from_class_values"),
)

# Rotation constructors as the CLI calls them: ``cli.Rotation`` is replaced
# by a namespace whose two constructors are traced.
ROTATION_CTORS = ("from_quaternion", "from_euler_zyz")
ROOT = "cli.main"


class Tracer:
    """Collects spans while installed; ``root`` opens one span per CLI call."""

    def __init__(self):
        self.spans: list[list] = []
        self.roots: dict[int, tuple[str, str]] = {}  # root span -> (phase, tag)
        self.phase = self.tag = ""  # label of the next root span
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack, roots, clock = self.spans, self._stack, self.roots, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            if stack:
                rec = [name, 0.0, 0.0, stack[-1], stack[0]]
            else:
                rec = [name, 0.0, 0.0, -1, idx]
                roots[idx] = (self.phase, self.tag)
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for mod_name, attr, name in TARGETS:
            mod = importlib.import_module(mod_name)
            self._replace(mod, attr, self._wrap(getattr(mod, attr), name))
        cli = importlib.import_module("so3embed.cli")
        rot = cli.Rotation
        proxy = types.SimpleNamespace(
            **{c: self._wrap(getattr(rot, c), "so3.rotation_ctor") for c in ROTATION_CTORS}
        )
        self._replace(cli, "Rotation", proxy)

    def _replace(self, mod, attr: str, value) -> None:
        self._saved.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def restore(self) -> None:
        while self._saved:
            mod, attr, orig = self._saved.pop()
            setattr(mod, attr, orig)

    def root(self, phase: str, tag: str, fn, *args, name: str = ROOT):
        """Call ``fn(*args)`` under a new root span ``name`` labelled (phase, tag)."""
        self.phase, self.tag = phase, tag
        return self._wrap(fn, name)(*args)

    # -- analysis -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time covered by its direct children."""
        out = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                out[rec[3]] -= rec[2] - rec[1]
        return out

    def table(self):
        """Rows (name, layer, phase, tag, inclusive_s, self_s) for every span."""
        selfs = self.self_times()
        rows = []
        for rec, s in zip(self.spans, selfs):
            phase, tag = self.roots.get(rec[4], ("", ""))
            rows.append((rec[0], rec[0].split(".", 1)[0], phase, tag, rec[2] - rec[1], s))
        return rows

    def write(self, path) -> None:
        """Write all spans as CSV: index, name, start, end, parent, root, phase, tag."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,root,phase,tag\n")
            for i, (name, t0, t1, parent, root) in enumerate(self.spans):
                phase, tag = self.roots.get(root, ("", ""))
                fh.write(f"{i},{name},{t0!r},{t1!r},{parent},{root},{phase},{tag}\n")
