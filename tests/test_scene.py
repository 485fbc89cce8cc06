import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfattack.scene import (
    FlowField,
    FormatError,
    LengthError,
    PointCloud,
    ScenePair,
    ValidationError,
    load_ply,
    load_sfp,
    save_ply,
    save_sfp,
    validate,
)


def make_pair(n1=5, n2=7, color=True, flow=True, seed=0):
    rng = np.random.default_rng(seed)
    f32 = lambda a: a.astype(np.float32).astype(np.float64)
    pc1 = PointCloud(f32(rng.normal(size=(n1, 3))),
                     f32(rng.uniform(size=(n1, 3))) if color else None)
    pc2 = PointCloud(f32(rng.normal(size=(n2, 3))),
                     f32(rng.uniform(size=(n2, 3))) if color else None)
    gt = FlowField(f32(rng.normal(size=(n1, 3)))) if flow else None
    return ScenePair(pc1, pc2, gt, f"p{seed}")


class TestTypes:
    def test_shapes_rejected(self):
        with pytest.raises(ValidationError):
            PointCloud(np.zeros((3, 2)))
        with pytest.raises(ValidationError):
            PointCloud(np.zeros((0, 3)))
        with pytest.raises(ValidationError):
            PointCloud(np.zeros((3, 3)), np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            FlowField(np.zeros((3, 4)))

    def test_arrays_read_only(self):
        pc = PointCloud(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            pc.positions[0, 0] = 1.0

    def test_validate_clean(self):
        assert validate(make_pair()) == []

    def test_validate_color_mismatch(self):
        pair = ScenePair(PointCloud(np.zeros((2, 3)), np.zeros((2, 3))),
                         PointCloud(np.zeros((2, 3))))
        assert "color presence mismatch" in validate(pair)

    def test_validate_flow_length(self):
        pair = ScenePair(PointCloud(np.zeros((2, 3))), PointCloud(np.zeros((2, 3))),
                         FlowField(np.zeros((3, 3))))
        assert "flow length mismatch" in validate(pair)

    def test_validate_color_range(self):
        pc = PointCloud(np.zeros((1, 3)), np.full((1, 3), 1.5))
        pair = ScenePair(pc, pc)
        assert any("color outside" in v for v in validate(pair))

    def test_validate_non_finite(self):
        pos = np.array([[np.inf, 0.0, 0.0]])
        pair = ScenePair(PointCloud(pos), PointCloud(np.zeros((1, 3))))
        assert any("non-finite" in v for v in validate(pair))


class TestSfp:
    @pytest.mark.parametrize("color,flow", [(True, True), (True, False),
                                            (False, True), (False, False)])
    def test_round_trip_bit_exact(self, color, flow):
        pair = make_pair(color=color, flow=flow)
        blob = save_sfp(pair)
        back = load_sfp(blob, pair.id)
        assert np.array_equal(back.pc1.positions, pair.pc1.positions)
        assert np.array_equal(back.pc2.positions, pair.pc2.positions)
        assert back.pc1.has_colors == color
        if color:
            assert np.array_equal(back.pc1.colors, pair.pc1.colors)
            assert np.array_equal(back.pc2.colors, pair.pc2.colors)
        if flow:
            assert np.array_equal(back.gt_flow.vectors, pair.gt_flow.vectors)
        else:
            assert back.gt_flow is None
        # canonical: save(load(save(x))) == save(x)
        assert save_sfp(back) == blob

    def test_byte_length(self):
        pair = make_pair(n1=5, n2=7, color=False, flow=False)
        assert len(save_sfp(pair)) == 16 + 4 * 3 * (5 + 7)
        pair = make_pair(n1=5, n2=7, color=True, flow=True)
        assert len(save_sfp(pair)) == 16 + 4 * (3 * (5 + 7) * 2 + 3 * 5)

    def test_bad_magic(self):
        blob = bytearray(save_sfp(make_pair()))
        blob[:4] = b"XXXX"
        with pytest.raises(FormatError):
            load_sfp(bytes(blob))

    def test_truncated(self):
        blob = save_sfp(make_pair())
        with pytest.raises(LengthError):
            load_sfp(blob[:-4])
        with pytest.raises(LengthError):
            load_sfp(blob + b"\x00\x00\x00\x00")
        with pytest.raises(LengthError):
            load_sfp(blob[:8])

    def test_unknown_flags(self):
        blob = bytearray(save_sfp(make_pair(color=False, flow=False)))
        blob[4] |= 0b100
        with pytest.raises(FormatError):
            load_sfp(bytes(blob))

    def test_save_rejects_invalid(self):
        pair = ScenePair(PointCloud(np.zeros((2, 3))), PointCloud(np.zeros((2, 3))),
                         FlowField(np.zeros((5, 3))))
        with pytest.raises(ValidationError):
            save_sfp(pair)

    def test_load_rejects_bad_color(self):
        pair = make_pair(color=True, flow=False)
        blob = bytearray(save_sfp(pair))
        # corrupt a color byte to an out-of-range float
        off = 16 + 4 * 3 * (pair.pc1.n_points + pair.pc2.n_points)
        blob[off:off + 4] = np.float32(7.0).tobytes()
        with pytest.raises(ValidationError):
            load_sfp(bytes(blob))

    @given(st.integers(1, 6), st.integers(1, 6), st.booleans(), st.booleans(),
           st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_property(self, n1, n2, color, flow, seed):
        pair = make_pair(n1, n2, color, flow, seed)
        assert save_sfp(load_sfp(save_sfp(pair))) == save_sfp(pair)


class TestPly:
    def test_round_trip(self):
        pair = make_pair()
        back = load_ply(save_ply(pair.pc1))
        assert np.array_equal(back.positions, pair.pc1.positions)
        assert np.array_equal(back.colors, pair.pc1.colors)

    def test_round_trip_no_color(self):
        pc = make_pair(color=False).pc1
        back = load_ply(save_ply(pc))
        assert np.array_equal(back.positions, pc.positions)
        assert back.colors is None

    def test_header_contents(self):
        text = save_ply(make_pair(n1=3).pc1)
        head = text.split("end_header")[0]
        assert head.startswith("ply\nformat ascii 1.0\n")
        assert "element vertex 3" in head

    def test_missing_property(self):
        text = save_ply(make_pair(color=False).pc1)
        with pytest.raises(FormatError):
            load_ply(text.replace("property float z\n", ""))

    def test_count_mismatch(self):
        text = save_ply(make_pair(n1=3, color=False).pc1)
        with pytest.raises(LengthError):
            load_ply(text.replace("element vertex 3", "element vertex 4"))

    def test_not_ply(self):
        with pytest.raises(FormatError):
            load_ply("off\n3 0 0\n")

    def test_non_integer_vertex_count(self):
        text = save_ply(make_pair(n1=3, color=False).pc1)
        with pytest.raises(FormatError) as info:
            load_ply(text.replace("element vertex 3", "element vertex abc"))
        assert isinstance(info.value.__cause__, ValueError)

    def test_non_numeric_field(self):
        text = save_ply(make_pair(n1=2, color=False).pc1)
        lines = text.rstrip("\n").split("\n")
        lines[-1] = "0.5 abc 0.25"
        with pytest.raises(FormatError) as info:
            load_ply("\n".join(lines) + "\n")
        assert isinstance(info.value.__cause__, ValueError)

    def test_bad_row_width(self):
        text = save_ply(make_pair(n1=2, color=False).pc1)
        lines = text.rstrip("\n").split("\n")
        lines[-1] = lines[-1] + " 9.5"
        with pytest.raises(FormatError):
            load_ply("\n".join(lines) + "\n")
