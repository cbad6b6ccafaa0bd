"""Dataset generation, CHDS file round trips, plane packing."""

import struct
import tracemalloc

import numpy as np
import pytest

from chansr.channel import (OfdmConfig, PilotPattern, generate_channel, load_tdl_profile, ls_estimate,
                            make_pilot_observation)
from chansr.dataset import (CHDS_MAGIC, CHDS_VERSION, DOMAIN_TEST, DOMAIN_TRAIN, DOMAIN_VAL, ChannelDataset,
                            complex_from_planes, concat_datasets, draw, generate_dataset,
                            load_dataset, planes_from_complex, sample_rng, save_dataset)
from chansr.fio import atomic_write_bytes


def _small(n=4, seed=0, domain=DOMAIN_TRAIN, profile="tdl-a", snr=10.0):
    cfg = OfdmConfig(n_f=32, n_t=12)
    pat = PilotPattern.from_intervals(cfg, 9, 5)
    return generate_dataset(load_tdl_profile(profile), cfg, pat, snr, n,
                            seed=seed, domain=domain)


def test_generate_shapes_and_dtypes():
    ds = _small(n=3)
    assert len(ds) == 3
    assert ds.h_ls.shape == (3, 4, 3) and ds.h_ls.dtype == np.complex64
    assert ds.h_true.shape == (3, 32, 12) and ds.h_true.dtype == np.complex64


def test_generation_deterministic_and_index_addressable():
    a = _small(n=4, seed=5)
    b = _small(n=4, seed=5)
    assert np.array_equal(a.h_true, b.h_true) and np.array_equal(a.h_ls, b.h_ls)
    # sample i depends only on (seed, profile, domain, i): a longer run
    # reproduces the shorter one as its prefix
    c = _small(n=2, seed=5)
    assert np.array_equal(a.h_true[:2], c.h_true)
    assert np.array_equal(a.h_ls[:2], c.h_ls)


def test_domains_and_profiles_give_distinct_streams():
    base = _small(n=2, seed=5, domain=DOMAIN_TRAIN)
    val = _small(n=2, seed=5, domain=DOMAIN_VAL)
    test = _small(n=2, seed=5, domain=DOMAIN_TEST)
    other = _small(n=2, seed=5, profile="tdl-d")
    assert not np.array_equal(base.h_true, val.h_true)
    assert not np.array_equal(base.h_true, test.h_true)
    assert not np.array_equal(val.h_true, test.h_true)
    assert not np.array_equal(base.h_true, other.h_true)


def test_common_random_numbers_across_snr():
    lo = _small(n=3, seed=9, snr=0.0)
    hi = _small(n=3, seed=9, snr=20.0)
    inf = _small(n=3, seed=9, snr=np.inf)
    assert np.array_equal(lo.h_true, hi.h_true)
    assert np.array_equal(lo.h_true, inf.h_true)
    # the noise component shrinks by exactly 10x in amplitude between 0 and 20 dB
    w_lo = lo.h_ls - inf.h_ls
    w_hi = hi.h_ls - inf.h_ls
    assert np.allclose(w_lo, 10.0 * w_hi, rtol=1e-4)


def test_generate_dataset_matches_per_sample_reference_loop():
    cfg = OfdmConfig(n_f=32, n_t=12)
    pat = PilotPattern.from_intervals(cfg, 9, 5)
    prof = load_tdl_profile("tdl-d")
    draws = draw(prof, cfg, pat, 5, seed=4, domain=DOMAIN_TEST)
    for snr in (0.0, 7.5, np.inf):
        ds = generate_dataset(prof, cfg, pat, snr, 5, seed=4, domain=DOMAIN_TEST)
        h_ls, h_true = [], []
        for i in range(5):
            rng = sample_rng(4, prof.name, DOMAIN_TEST, i)
            h = generate_channel(prof, cfg, rng)
            h_ls.append(ls_estimate(make_pilot_observation(h, pat, snr, rng)))
            h_true.append(h)
        assert np.array_equal(ds.h_ls, np.array(h_ls, np.complex64))
        assert np.array_equal(ds.h_true, np.array(h_true, np.complex64))
        # one draw formed at each SNR gives the same bits as generating afresh
        again = draws.at_snr(snr)
        assert np.array_equal(again.h_ls, ds.h_ls) and np.array_equal(again.h_true, ds.h_true)


def test_sample_rng_distinct_across_indices():
    r0 = sample_rng(1, "tdl-a", DOMAIN_TRAIN, 0).standard_normal(8)
    r1 = sample_rng(1, "tdl-a", DOMAIN_TRAIN, 1).standard_normal(8)
    assert not np.array_equal(r0, r1)


def test_chds_round_trip_byte_exact(tmp_path):
    ds = _small(n=5, seed=3)
    p = tmp_path / "a.chds"
    save_dataset(ds, p)
    back = load_dataset(p)
    assert np.array_equal(back.h_ls, ds.h_ls)
    assert np.array_equal(back.h_true, ds.h_true)
    # re-save reproduces identical bytes
    p2 = tmp_path / "b.chds"
    save_dataset(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_chds_header_and_corruption_errors(tmp_path):
    ds = _small(n=2)
    p = tmp_path / "a.chds"
    save_dataset(ds, p)
    raw = bytearray(p.read_bytes())

    bad_magic = tmp_path / "m.chds"
    bad_magic.write_bytes(b"XXXX" + bytes(raw[4:]))
    with pytest.raises(ValueError, match="not a CHDS"):
        load_dataset(bad_magic)

    truncated = tmp_path / "t.chds"
    truncated.write_bytes(bytes(raw[:-7]))
    with pytest.raises(ValueError, match="[Tt]runcat|size"):
        load_dataset(truncated)

    trailing = tmp_path / "x.chds"
    trailing.write_bytes(bytes(raw) + b"\0")
    with pytest.raises(ValueError):
        load_dataset(trailing)

    short = tmp_path / "s.chds"
    short.write_bytes(bytes(raw[:10]))
    with pytest.raises(ValueError):
        load_dataset(short)


def _traced_peak(fn, *args):
    """fn(*args) and the peak bytes that tracemalloc saw allocated while it ran."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_chds_hostile_header_sizes_no_allocation(tmp_path):
    # a bare header claiming 2**20 samples of 128x28 (about 30 GB of payload)
    p = tmp_path / "h.chds"
    p.write_bytes(CHDS_MAGIC + struct.pack("<6I", CHDS_VERSION, 1 << 20, 128, 28, 15, 6))

    def load():
        with pytest.raises(ValueError, match="truncated or oversized"):
            load_dataset(p)

    _, peak = _traced_peak(load)
    assert peak < 1 << 20


def test_chds_load_holds_the_payload_once(tmp_path):
    cfg = OfdmConfig()  # the reference geometry, 256 samples
    ds = generate_dataset(load_tdl_profile("tdl-a"), cfg, PilotPattern.from_intervals(cfg), 10.0, 256,
                          seed=0, domain=DOMAIN_TRAIN)
    p = tmp_path / "a.chds"
    save_dataset(ds, p)
    back, peak = _traced_peak(load_dataset, p)
    payload = ds.h_ls.nbytes + ds.h_true.nbytes
    # the file image plus a copy of each field would read 2.0x; one payload array plus the finiteness mask 1.25x
    assert peak <= 1.5 * payload
    assert back.h_ls.base is not None and back.h_ls.base is back.h_true.base
    assert np.array_equal(back.h_ls, ds.h_ls) and np.array_equal(back.h_true, ds.h_true)


def test_chds_save_streams_without_a_file_image(tmp_path):
    cfg = OfdmConfig()  # the reference geometry, 256 samples
    ds = generate_dataset(load_tdl_profile("tdl-a"), cfg, PilotPattern.from_intervals(cfg), 10.0, 256,
                          seed=0, domain=DOMAIN_TRAIN)
    payload = ds.h_ls.nbytes + ds.h_true.nbytes
    fortran = ChannelDataset(np.asfortranarray(ds.h_ls), np.asfortranarray(ds.h_true))
    images = []
    for name, d in (("c.chds", ds), ("f.chds", fortran)):
        _, peak = _traced_peak(save_dataset, d, tmp_path / name)
        # an image of the file would read 1.0x; streaming holds one sample's rows at a time
        assert peak <= 0.05 * payload, name
        images.append((tmp_path / name).read_bytes())
    assert images[0] == images[1]
    back = load_dataset(tmp_path / "c.chds")
    assert np.array_equal(back.h_ls, ds.h_ls) and np.array_equal(back.h_true, ds.h_true)


def test_atomic_write_failing_pieces_leave_the_target(tmp_path):
    target = tmp_path / "a.bin"
    target.write_bytes(b"old")

    def pieces():
        yield b"new"
        raise RuntimeError("generator failed")

    with pytest.raises(RuntimeError, match="generator failed"):
        atomic_write_bytes(target, pieces())
    assert target.read_bytes() == b"old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bin"]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_chds_rejects_non_finite_payload(tmp_path, bad):
    ds = _small(n=3)
    p = tmp_path / "a.chds"
    save_dataset(ds, p)
    raw = bytearray(p.read_bytes())
    off = 28 + 8 * (ds.h_ls[0].size + 5) + 4  # imaginary part of one true-grid entry of sample 0
    raw[off:off + 4] = np.float32(bad).tobytes()
    p.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="non-finite"):
        load_dataset(p)


def test_dataset_validation():
    ds = _small(n=6)
    with pytest.raises(ValueError):
        ChannelDataset(h_ls=ds.h_ls, h_true=ds.h_true[:3])
    with pytest.raises(ValueError):
        cfg = OfdmConfig(n_f=32, n_t=12)
        generate_dataset(load_tdl_profile("tdl-a"), cfg,
                         PilotPattern.from_intervals(cfg, 9, 5), 10.0, 0,
                         seed=0, domain=DOMAIN_TRAIN)


def test_concat_datasets():
    a = _small(n=2, seed=1)
    b = _small(n=3, seed=2, profile="tdl-d")
    both = concat_datasets([a, b])
    assert len(both) == 5
    assert np.array_equal(both.h_true[:2], a.h_true)
    assert np.array_equal(both.h_true[2:], b.h_true)
    with pytest.raises(ValueError):
        concat_datasets([])


def test_planes_round_trip():
    rng = np.random.default_rng(0)
    z = (rng.standard_normal((4, 5, 6)) + 1j * rng.standard_normal((4, 5, 6))).astype(np.complex64)
    planes = planes_from_complex(z)
    assert planes.shape == (4, 2, 5, 6) and planes.dtype == np.float32
    assert np.array_equal(planes[:, 0], z.real) and np.array_equal(planes[:, 1], z.imag)
    assert np.array_equal(complex_from_planes(planes), z)
