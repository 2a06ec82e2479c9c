import numpy as np
import pytest

from fputw import checkpoint as ck
from fputw import monatomic as mono
from fputw.errors import (CheckpointCorruptError, CheckpointVersionError,
                          ExtensionCoverageError)
from fputw.solution import Extension, Mesh, PiecewiseSolution


@pytest.fixture(scope="module")
def sample():
    mesh = Mesh(4.0, 8, 3)
    sol = PiecewiseSolution.from_callables(
        mesh, [lambda t: np.exp(-t), lambda t: -np.exp(-t)],
        (Extension.even_zero(), Extension.odd_zero()))
    return ck.Checkpoint("test-kind",
                         {"kappa": 1.25, "iters": 4, "ok": True, "tag": "x"},
                         [ck.solution_to_block("main", sol)])


def test_roundtrip_bitwise(sample, tmp_path):
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    ck.write(sample, p1)
    loaded = ck.read(p1)
    ck.write(loaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.meta == sample.meta
    assert np.array_equal(loaded.blocks[0].coeffs, sample.blocks[0].coeffs)


def test_truncated_is_corrupt(sample, tmp_path):
    p = tmp_path / "t.ckpt"
    ck.write(sample, p)
    text = p.read_text()
    p.write_text(text[: len(text) // 2])
    with pytest.raises(CheckpointCorruptError):
        ck.read(p)


def test_version_bump_rejected(sample, tmp_path):
    p = tmp_path / "v.ckpt"
    ck.write(sample, p)
    text = p.read_text().replace("fputw-checkpoint v1", "fputw-checkpoint v2", 1)
    p.write_text(text)
    with pytest.raises(CheckpointVersionError):
        ck.read(p)


def test_garbage_is_corrupt(tmp_path):
    p = tmp_path / "g.ckpt"
    p.write_text("not a checkpoint\n")
    with pytest.raises(CheckpointCorruptError):
        ck.read(p)


def test_policy_tokens_roundtrip(sample, tmp_path):
    p = tmp_path / "p.ckpt"
    ck.write(sample, p)
    loaded = ck.read(p)
    sol = ck.block_to_solution(loaded.blocks[0])
    assert sol.policies[0].left_sign == 1.0
    assert sol.policies[1].left_sign == -1.0
    assert sol.policies[0].right == "zero"


def test_every_tokenized_policy_roundtrips_and_others_are_refused():
    for ext in (Extension.even_zero(), Extension.odd_zero(), Extension.periodic_even(),
                Extension.periodic_odd(), Extension.interior_only()):
        assert ck._policy_from_tokens(*ck._policy_tokens(ext)) == ext
    # no token describes these; they used to be written as "even"/"reflect+"
    for ext in (Extension(left="reflect", left_sign=0.5, right="zero"),
                Extension(left="reflect", right="reflect", right_sign=2.0)):
        with pytest.raises(ValueError, match="no checkpoint token"):
            ck._policy_tokens(ext)


def test_affine_placeholder_refuses_exterior(tmp_path):
    mesh = Mesh(4.0, 8, 3)
    sol = PiecewiseSolution.from_callables(
        mesh, [lambda t: t],
        (Extension.affine(-1.0, lambda x: 0 * x, label="custom"),))
    c = ck.Checkpoint("k", {}, [ck.solution_to_block("b", sol)])
    p = tmp_path / "a.ckpt"
    ck.write(c, p)
    restored = ck.block_to_solution(ck.read(p).blocks[0])
    assert restored.eval(1.0, 0) == pytest.approx(1.0)
    with pytest.raises(ExtensionCoverageError):
        restored.eval(-1.0, 0)


def test_monatomic_joint_roundtrip(tmp_path):
    wave, jost = mono.solve_joint(0.5, mono.MonatomicConfig(intervals=128, length=16.0))
    p = tmp_path / "joint.ckpt"
    mono.save_joint(wave, jost, p)
    w2, j2 = mono.load_joint(p)
    assert w2.sigma == wave.sigma
    assert j2.beta == jost.beta
    # the rebound affine policy reproduces the odd gamma extension
    xi = np.array([0.3, 1.7, 4.0])
    assert np.max(np.abs(j2.gamma(xi) + j2.gamma(-xi))) < 1e-10
    # writing the loaded object again is byte-identical
    p2 = tmp_path / "joint2.ckpt"
    mono.save_joint(w2, j2, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_failed_write_keeps_old_file(sample, tmp_path):
    p = tmp_path / "w.ckpt"
    ck.write(sample, p)
    before = p.read_bytes()
    # a non-ASCII meta string fails inside the write, after the file is open
    bad = ck.Checkpoint("test-kind", {"tag": "é"}, sample.blocks)
    with pytest.raises(UnicodeEncodeError):
        ck.write(bad, p)
    assert p.read_bytes() == before
    assert sorted(f.name for f in tmp_path.iterdir()) == ["w.ckpt"]


def _drop_row(lines):
    lines.remove(next(ln for ln in lines if ln.startswith("coeffs 0 3 ")))


def _negative_comp(lines):
    i = next(i for i, ln in enumerate(lines) if ln.startswith("coeffs 1 3 "))
    lines[i] = lines[i].replace("coeffs 1 3 ", "coeffs -1 3 ", 1)


def _repeat_row(lines):
    i = next(i for i, ln in enumerate(lines) if ln.startswith("coeffs 0 3 "))
    lines.insert(i, lines[i])


def _swap_policies(lines):
    i = next(i for i, ln in enumerate(lines) if ln.startswith("policy 0 "))
    lines[i], lines[i + 1] = lines[i + 1], lines[i]


@pytest.mark.parametrize("edit", [_drop_row, _negative_comp, _repeat_row,
                                  _swap_policies])
def test_missing_or_misnumbered_rows_are_corrupt(sample, tmp_path, edit):
    # each edit keeps the 'end' line; read without the row checks, a dropped
    # row would load as zeros and comp -1 would index the last component
    p = tmp_path / "r.ckpt"
    ck.write(sample, p)
    lines = p.read_text().split("\n")
    edit(lines)
    p.write_text("\n".join(lines))
    with pytest.raises(CheckpointCorruptError):
        ck.read(p)
