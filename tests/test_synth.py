import numpy as np
import pytest

from sfattack.scene import ValidationError, save_sfp, validate
from sfattack.synth import (
    DatasetSpec,
    MotionSpec,
    apply_motion,
    make_dataset,
    make_pair,
    make_pair_at,
    write_dataset,
    load_dataset,
)


class TestMotion:
    def test_quarter_turn_about_z(self):
        spec = MotionSpec(kind="rigid", axis=(0.0, 0.0, 1.0), angle=np.pi / 2)
        moved = apply_motion(np.array([[1.0, 0.0, 0.0]]), spec)
        assert np.allclose(moved, [[0.0, 1.0, 0.0]], atol=1e-12)

    def test_identity(self):
        pts = np.random.default_rng(0).uniform(-1, 1, size=(10, 3))
        assert np.array_equal(apply_motion(pts, MotionSpec()), pts)

    def test_pure_translation(self):
        pts = np.random.default_rng(1).uniform(-1, 1, size=(10, 3))
        spec = MotionSpec(translation=(0.1, -0.2, 0.3))
        assert np.allclose(apply_motion(pts, spec) - pts, [0.1, -0.2, 0.3],
                           atol=1e-15)

    def test_rigid_preserves_distances(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-1, 1, size=(20, 3))
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        spec = MotionSpec(axis=tuple(axis), angle=0.7, translation=(0.2, 0.1, -0.3))
        moved = apply_motion(pts, spec)
        d0 = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        d1 = np.linalg.norm(moved[:, None] - moved[None, :], axis=2)
        assert np.abs(d0 - d1).max() < 1e-9

    def test_deform_amplitude(self):
        pts = np.array([[0.0, 0.5, 0.0]])
        spec = MotionSpec(kind="deform", deform_amplitude=0.2)
        assert np.allclose(apply_motion(pts, spec) - pts, [[0.2, 0.0, 0.0]],
                           atol=1e-15)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            MotionSpec(kind="affine")
        with pytest.raises(ValidationError):
            MotionSpec(axis=(1.0, 1.0, 0.0), angle=0.5)
        with pytest.raises(ValidationError):
            MotionSpec(drop_fraction=1.0)
        with pytest.raises(ValidationError):
            MotionSpec(noise_sigma=-0.1)

    @pytest.mark.parametrize("field, value", [
        ("axis", (np.nan, 0.0, 1.0)), ("angle", np.inf), ("angle", np.nan),
        ("translation", (0.0, np.inf, 0.0)), ("deform_amplitude", np.inf),
        ("noise_sigma", np.nan), ("noise_sigma", np.inf), ("drop_fraction", np.nan),
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            MotionSpec(**{field: value})


class TestMakePair:
    def test_gt_is_exact_despite_noise(self):
        spec = MotionSpec(angle=0.3, axis=(0.0, 1.0, 0.0),
                          translation=(0.1, 0.0, 0.0), noise_sigma=0.05)
        pair = make_pair(50, spec, with_color=False, seed=3)
        clean = MotionSpec(angle=0.3, axis=(0.0, 1.0, 0.0), translation=(0.1, 0.0, 0.0))
        expect = apply_motion(pair.pc1.positions, clean) - pair.pc1.positions
        assert np.array_equal(pair.gt_flow.vectors, expect)

    def test_noise_free_pc2_matches_gt(self):
        spec = MotionSpec(angle=0.2, translation=(0.0, 0.1, 0.0))
        pair = make_pair(30, spec, with_color=True, seed=4)
        assert np.allclose(pair.pc2.positions,
                           pair.pc1.positions + pair.gt_flow.vectors,
                           rtol=0, atol=1e-15)
        assert np.array_equal(pair.pc1.colors, pair.pc2.colors)

    def test_drop_fraction(self):
        pair = make_pair(40, MotionSpec(drop_fraction=0.25), with_color=True, seed=5)
        assert pair.pc2.n_points == 30
        assert pair.gt_flow.n_points == 40
        # surviving second-frame points are a subset of the moved first frame
        moved = pair.pc1.positions
        for row in pair.pc2.positions:
            assert np.any(np.all(moved == row, axis=1))

    def test_determinism(self):
        spec = MotionSpec(angle=0.1, noise_sigma=0.02, drop_fraction=0.1)
        a = make_pair(25, spec, with_color=True, seed=6)
        b = make_pair(25, spec, with_color=True, seed=6)
        assert save_sfp(a) == save_sfp(b)
        c = make_pair(25, spec, with_color=True, seed=7)
        assert save_sfp(a) != save_sfp(c)

    def test_bounds_and_validity(self):
        pair = make_pair(100, MotionSpec(), with_color=True, seed=8)
        assert pair.pc1.positions.min() >= -1.0 and pair.pc1.positions.max() <= 1.0
        assert validate(pair) == []


class TestDataset:
    def test_pair_k_independent_of_count(self):
        ds = DatasetSpec(n_points=16)
        full = make_dataset(6, ds, seed=11)
        assert save_sfp(full[4]) == save_sfp(make_pair_at(ds, 11, 4))
        short = make_dataset(5, ds, seed=11)
        for a, b in zip(short, full):
            assert save_sfp(a) == save_sfp(b)

    def test_dataset_determinism(self):
        ds = DatasetSpec(n_points=16, with_color=True, noise_sigma=0.01)
        a = make_dataset(4, ds, seed=12)
        b = make_dataset(4, ds, seed=12)
        assert [save_sfp(p) for p in a] == [save_sfp(p) for p in b]

    def test_pairs_differ(self):
        pairs = make_dataset(3, DatasetSpec(n_points=16), seed=13)
        blobs = {save_sfp(p) for p in pairs}
        assert len(blobs) == 3

    def test_write_and_load(self, tmp_path):
        ds = DatasetSpec(n_points=16, with_color=True)
        pairs = make_dataset(3, ds, seed=14)
        write_dataset(pairs, tmp_path, seed=14, ds=ds)
        assert (tmp_path / "manifest.json").exists()
        back = load_dataset(tmp_path)
        assert len(back) == 3
        for a, b in zip(pairs, back):
            # stored values are 32-bit, so loading widens but stays close
            assert np.allclose(a.pc1.positions, b.pc1.positions, atol=1e-6)
            assert np.allclose(a.gt_flow.vectors, b.gt_flow.vectors, atol=1e-6)
        # a second load is byte-identical
        again = load_dataset(tmp_path)
        assert [save_sfp(p) for p in back] == [save_sfp(p) for p in again]

    def test_load_empty_dir(self, tmp_path):
        with pytest.raises(ValidationError):
            load_dataset(tmp_path)

    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            DatasetSpec(angle_range=(0.5, 0.1))
        with pytest.raises(ValidationError):
            DatasetSpec(translation_scale=-1.0)
        with pytest.raises(ValidationError):
            make_dataset(0, DatasetSpec(), seed=0)

    @pytest.mark.parametrize("field, value", [
        ("angle_range", (0.0, np.inf)), ("angle_range", (np.nan, 0.3)),
        ("deform_range", (0.0, np.nan)), ("translation_scale", np.inf),
        ("translation_scale", np.nan), ("noise_sigma", np.nan),
        ("drop_fraction", np.nan),
    ])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValidationError, match=f"{field} must be finite"):
            DatasetSpec(**{field: value})
