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

Affine extension policies serialize as ``affine<sign>:<label>`` tokens; their
offset closures cannot travel through text, so loading yields a placeholder
policy that refuses exterior evaluation until the owning module rebinds it
(pass an ``affine_resolver`` or rebuild policies from the meta entries).

A wrong version line raises :class:`CheckpointVersionError`; anything
truncated or malformed raises :class:`CheckpointCorruptError` without
building a partial object.  Loading and re-serializing reproduces the file
byte for byte.  Files are written atomically (:func:`atomic_writer`), so an
interrupted write leaves the previous file in place.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import CheckpointCorruptError, CheckpointVersionError
from .solution import Extension, Mesh, PiecewiseSolution

HEADER = "fputw-checkpoint v1"


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
    if not lines or lines[0].startswith("fputw-checkpoint") is False:
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
            elif tag == "policy":
                blk.policy_tokens.append((parts[2], parts[3]))
            elif tag == "coeffs":
                c, i = int(parts[1]), int(parts[2])
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
    for blk in ck.blocks:
        if len(blk.policy_tokens) != blk.coeffs.shape[0]:
            raise CheckpointCorruptError("policy count does not match components")
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

def solution_to_block(name: str, sol: PiecewiseSolution) -> CheckpointBlock:
    return CheckpointBlock(name, sol.mesh,
                           [ext.tokens() for ext in sol.policies],
                           sol.coeffs.copy())


def _policy_from_tokens(lt: str, rt: str, affine_resolver=None) -> Extension:
    if rt == "zero":
        right, rsign = "zero", 1.0
    elif rt == "reflect+":
        right, rsign = "reflect", 1.0
    elif rt == "reflect-":
        right, rsign = "reflect", -1.0
    elif rt == "none":
        right, rsign = "none", 1.0
    else:
        raise CheckpointCorruptError(f"unknown right policy token {rt!r}")
    if lt == "even":
        return Extension(left="reflect", left_sign=1.0, right=right, right_sign=rsign)
    if lt == "odd":
        return Extension(left="reflect", left_sign=-1.0, right=right, right_sign=rsign)
    if lt == "none":
        return Extension(left="none", right=right, right_sign=rsign)
    if lt.startswith("affine"):
        sig, label = lt[len("affine"):].split(":", 1)
        ext = None
        if affine_resolver is not None:
            ext = affine_resolver(label, float(sig), right, rsign)
        if ext is None:
            # placeholder: exterior evaluation fails until rebound
            ext = Extension(left="affine", left_sign=float(sig), left_offset=None,
                            right=right, right_sign=rsign, label=label)
        return ext
    raise CheckpointCorruptError(f"unknown left policy token {lt!r}")


def block_to_solution(blk: CheckpointBlock, affine_resolver=None) -> PiecewiseSolution:
    policies = tuple(_policy_from_tokens(lt, rt, affine_resolver)
                     for lt, rt in blk.policy_tokens)
    return PiecewiseSolution(blk.mesh, blk.coeffs.copy(), policies)
