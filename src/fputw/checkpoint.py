"""Versioned text checkpoints for collocation solutions.

Layout (line-oriented, self-describing, exact float round-trip via repr):

    fputw-checkpoint v1
    kind <token>
    meta <key> <f|i|s|b> <value>
    block <name> <ncomp> <L> <M> <k>
    policy <comp> <left-token> <right-token>
    coeffs <comp> <interval> <c_0> ... <c_k>
    ...
    end

The extension policies of a kind are fixed by the module that owns it, which
passes them to :func:`block_to_solution`; a block's ``policy`` lines (affine
rules as ``affine<sign>:<label>``) are only checked against them.

A wrong version line raises :class:`CheckpointVersionError`; anything
truncated or malformed raises :class:`CheckpointCorruptError` without
building a partial object: a policy or coefficient row that is missing,
repeated or out of (comp, interval) order, a kind, block list or meta entry
other than its owner's :meth:`Checkpoint.expect` names, or policy lines
other than the owner's policies.  Loading and re-serializing reproduces the
file byte for byte.  Files are written atomically (:func:`atomic_writer`),
so an interrupted write leaves the previous file in place.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CheckpointCorruptError, CheckpointVersionError
from .solution import Extension, Mesh, PiecewiseSolution

MAGIC = "fputw-checkpoint"
HEADER = f"{MAGIC} v1"


@dataclass
class CheckpointBlock:
    name: str
    mesh: Mesh
    policy_tokens: list[tuple[str, str]]
    coeffs: np.ndarray


@dataclass
class Checkpoint:
    kind: str
    meta: dict = field(default_factory=dict)
    blocks: list[CheckpointBlock] = field(default_factory=list)

    def expect(self, kind: str, block_names, **meta_types) -> dict:
        """The meta entries of this checkpoint after checking that it is a
        ``kind`` checkpoint with the blocks ``block_names`` in order and a
        meta entry of each type in ``meta_types`` (an int passes for a
        float); CheckpointCorruptError otherwise."""
        if self.kind != kind:
            raise CheckpointCorruptError(f"expected a {kind} checkpoint, got {self.kind!r}")
        names = [blk.name for blk in self.blocks]
        if names != list(block_names):
            raise CheckpointCorruptError(
                f"a {kind} checkpoint holds the blocks {list(block_names)}, not {names}")
        for key, typ in meta_types.items():
            v = self.meta.get(key)
            if type(v) is not typ and not (typ is float and type(v) is int):
                raise CheckpointCorruptError(
                    f"a {kind} checkpoint needs a {typ.__name__} meta {key!r}, got {v!r}")
        return self.meta


def _fmt(v: float) -> str:
    return repr(float(v))


def dumps(ck: Checkpoint) -> str:
    lines = [HEADER, f"kind {ck.kind}"]
    for key in sorted(ck.meta):
        v = ck.meta[key]
        if isinstance(v, bool):
            lines.append(f"meta {key} b {int(v)}")
        elif isinstance(v, (int, np.integer)):
            lines.append(f"meta {key} i {int(v)}")
        elif isinstance(v, (float, np.floating)):
            lines.append(f"meta {key} f {_fmt(v)}")
        else:
            s = str(v)
            if any(ch.isspace() for ch in s):
                raise ValueError(f"meta string {key!r} must not contain whitespace")
            lines.append(f"meta {key} s {s}")
    for blk in ck.blocks:
        mesh = blk.mesh
        n = blk.coeffs.shape[0]
        lines.append(f"block {blk.name} {n} {_fmt(mesh.length)} "
                     f"{mesh.intervals} {mesh.gauss_order}")
        for c, (lt, rt) in enumerate(blk.policy_tokens):
            lines.append(f"policy {c} {lt} {rt}")
        for c in range(n):
            for i in range(mesh.intervals):
                vals = " ".join(_fmt(v) for v in blk.coeffs[c, i])
                lines.append(f"coeffs {c} {i} {vals}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def loads(text: str) -> Checkpoint:
    lines = text.split("\n")
    if not lines[0].startswith(MAGIC):
        raise CheckpointCorruptError("missing checkpoint header")
    if lines[0] != HEADER:
        raise CheckpointVersionError(
            f"unsupported checkpoint version: {lines[0]!r} (expected {HEADER!r})")
    if lines[-1] == "":
        lines = lines[:-1]
    if not lines or lines[-1] != "end":
        raise CheckpointCorruptError("checkpoint truncated: missing 'end' sentinel")
    body = lines[1:-1]
    ck = Checkpoint(kind="")
    blk = None
    rows = []           # coefficient rows read per block
    try:
        for ln in body:
            parts = ln.split(" ")
            tag = parts[0]
            if tag == "kind":
                ck.kind = parts[1]
            elif tag == "meta":
                key, typ, raw = parts[1], parts[2], " ".join(parts[3:])
                if typ == "f":
                    ck.meta[key] = float(raw)
                elif typ == "i":
                    ck.meta[key] = int(raw)
                elif typ == "b":
                    ck.meta[key] = bool(int(raw))
                elif typ == "s":
                    ck.meta[key] = raw
                else:
                    raise CheckpointCorruptError(f"unknown meta type {typ!r}")
            elif tag == "block":
                name, n, L, m, k = parts[1], int(parts[2]), float(parts[3]), \
                    int(parts[4]), int(parts[5])
                mesh = Mesh(L, m, k)
                blk = CheckpointBlock(name, mesh, [],
                                      np.zeros((n, m, k + 1)))
                ck.blocks.append(blk)
                rows.append(0)
            elif tag == "policy":
                if int(parts[1]) != len(blk.policy_tokens):
                    raise CheckpointCorruptError("policy line out of component order")
                blk.policy_tokens.append((parts[2], parts[3]))
            elif tag == "coeffs":
                c, i = int(parts[1]), int(parts[2])
                if (c, i) != divmod(rows[-1], blk.mesh.intervals):
                    raise CheckpointCorruptError(f"unexpected coefficient row {c} {i}")
                rows[-1] += 1
                vals = [float(v) for v in parts[3:]]
                if len(vals) != blk.coeffs.shape[2]:
                    raise CheckpointCorruptError("coefficient row length mismatch")
                blk.coeffs[c, i] = vals
            else:
                raise CheckpointCorruptError(f"unknown line tag {tag!r}")
    except CheckpointCorruptError:
        raise
    except Exception as exc:
        raise CheckpointCorruptError(f"malformed checkpoint line: {exc}") from exc
    if not ck.kind:
        raise CheckpointCorruptError("checkpoint has no kind line")
    for blk, n_rows in zip(ck.blocks, rows):
        if len(blk.policy_tokens) != blk.coeffs.shape[0]:
            raise CheckpointCorruptError("policy count does not match components")
        if n_rows != blk.coeffs.shape[0] * blk.coeffs.shape[1]:
            raise CheckpointCorruptError("coefficient rows missing")
    return ck


@contextmanager
def atomic_writer(path):
    """Text handle on a temporary file beside ``path`` that replaces
    ``path`` only when the block completes; on any error the temporary file
    is removed and an existing ``path`` is left untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write(ck: Checkpoint, path) -> None:
    with atomic_writer(path) as fh:
        fh.write(dumps(ck))


def read(path) -> Checkpoint:
    with open(path, "r", encoding="ascii") as fh:
        return loads(fh.read())


# ---------------------------------------------------------------------------
# solution <-> block conversion
# ---------------------------------------------------------------------------

# policy token of each (rule, sign) but the affine ``affine<sign>:<label>``
_LEFT_NAMES = {("reflect", 1.0): "even", ("reflect", -1.0): "odd",
               ("none", 1.0): "none"}
_RIGHT_NAMES = {("zero", 1.0): "zero", ("none", 1.0): "none",
                ("reflect", 1.0): "reflect+", ("reflect", -1.0): "reflect-"}


def _policy_tokens(ext: Extension) -> tuple[str, str]:
    """The (left, right) tokens of a policy.  A policy no token describes
    raises ValueError."""
    if ext.left == "affine":
        lt = f"affine{ext.left_sign:+g}:{ext.label or 'anon'}"
    else:
        lt = _LEFT_NAMES.get((ext.left, ext.left_sign))
    rt = _RIGHT_NAMES.get((ext.right, ext.right_sign))
    if lt is None or rt is None:
        raise ValueError(f"no checkpoint token for the policy {ext}")
    return lt, rt


def solution_to_block(name: str, sol: PiecewiseSolution) -> CheckpointBlock:
    return CheckpointBlock(name, sol.mesh,
                           [_policy_tokens(ext) for ext in sol.policies],
                           sol.coeffs.copy())


def block_to_solution(blk: CheckpointBlock, policies) -> PiecewiseSolution:
    """The solution of ``blk`` with the ``policies`` of its owning module,
    which the block's policy lines must name."""
    tokens = [_policy_tokens(ext) for ext in policies]
    if blk.policy_tokens != tokens:
        raise CheckpointCorruptError(
            f"block {blk.name!r} has the policies {blk.policy_tokens}, "
            f"expected {tokens}")
    return PiecewiseSolution(blk.mesh, blk.coeffs.copy(), tuple(policies))
