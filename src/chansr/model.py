"""Dual-attention super-resolution network over 2-plane channel grids.

Stage order: channel attention -> spatial attention -> feature extraction with
a residual link -> transposed-convolution upsampling with a top-left crop.
Input is the LS pilot estimate as [2, N_f_p, N_t_p] real/imag planes (plane 0
real, plane 1 imaginary); output is the full [2, N_f, N_t] grid in the same
convention. Every stage takes a batch: [B, 2, N_f_p, N_t_p] in,
[B, 2, N_f, N_t] out.

The parameter set and its order are fixed. `ModelParams` keeps the values,
and the gradients, as one vector each in that order, with a named view per
parameter; the optimizer, Fisher pass and anchor penalty work on the vectors.

Checkpoint format (little-endian): magic "DASR", version u32, then per
parameter: name length u32, name bytes, rank u32, dims u32 each, float32
values row-major. Round-trips are bit-exact for float32 parameters.
"""

import struct

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .fio import atomic_write_bytes

_INIT_TAG = 0x696E6974  # parameter-init stream tag ("init")

# (name, shape); weights precede their biases, stage order is fixed
PARAM_SPECS = (
    ("ca_conv1_w", (16, 2, 3, 3)),
    ("ca_conv1_b", (16,)),
    ("ca_conv2_w", (2, 16, 3, 3)),
    ("ca_conv2_b", (2,)),
    ("sa_conv_w", (1, 2, 7, 7)),
    ("sa_conv_b", (1,)),
    ("fe_conv1_w", (32, 2, 5, 5)),
    ("fe_conv1_b", (32,)),
    ("fe_conv2_w", (16, 32, 1, 1)),
    ("fe_conv2_b", (16,)),
    ("fe_conv3_w", (16, 16, 3, 3)),
    ("fe_conv3_b", (16,)),
    ("fe_conv4_w", (32, 16, 1, 1)),
    ("fe_conv4_b", (32,)),
    ("us_deconv_w", (32, 2, 9, 5)),
    ("us_deconv_b", (2,)),
)

UPSAMPLE_STRIDE = (9, 5)

_SIZES = [int(np.prod(shape)) for _, shape in PARAM_SPECS]
PARAM_COUNT = sum(_SIZES)


def split_flat(vec: np.ndarray) -> dict:
    """Named views of a PARAM_COUNT vector, one per PARAM_SPECS entry in its shape."""
    parts = np.split(vec, np.cumsum(_SIZES)[:-1])
    return {name: part.reshape(shape) for (name, shape), part in zip(PARAM_SPECS, parts)}


def join_flat(arrays: dict, dtype) -> np.ndarray:
    """The PARAM_SPECS-ordered concatenation of named arrays, as one dtype vector."""
    return np.concatenate([np.ravel(arrays[name]) for name, _ in PARAM_SPECS], dtype=dtype)


def check_registry(arrays: dict, what: str = "parameter") -> None:
    """Refuse named arrays that are not exactly PARAM_SPECS: a missing or extra
    name, another shape, or a non-finite value."""
    missing = [n for n, _ in PARAM_SPECS if n not in arrays]
    extra = [n for n in arrays if n not in dict(PARAM_SPECS)]
    if missing or extra:
        raise ValueError(f"{what} set mismatch: missing {missing}, unexpected {extra}")
    for name, shape in PARAM_SPECS:
        data = np.asarray(arrays[name])
        if data.shape != shape:
            raise ValueError(f"{what} {name}: shape {data.shape} != expected {shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError(f"{what} {name}: non-finite values")


class ModelParams:
    """Exactly the PARAM_SPECS set: `params[name].data` and `.grad` are views into
    `flat.data` and `flat.grad`. Values take the dtype of the Tensors given, else
    the default dtype."""

    def __init__(self, arrays: dict):
        dt = next((v.dtype for v in arrays.values() if isinstance(v, Tensor)), ad.default_dtype())
        # checked after the cast, which can overflow to infinity
        data = {n: np.asarray(v.data if isinstance(v, Tensor) else v, dtype=dt) for n, v in arrays.items()}
        check_registry(data)
        self.flat = Tensor(join_flat(data, dt), requires_grad=True, dtype=dt)
        grads = split_flat(self.flat.grad)
        self._tensors = {}
        for name, view in split_flat(self.flat.data).items():
            t = self._tensors[name] = Tensor(view, requires_grad=True, dtype=dt)
            t.grad = grads[name]

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def names(self):
        return [name for name, _ in PARAM_SPECS]

    def tensors(self):
        """Parameters in the fixed registry order."""
        return [self._tensors[name] for name, _ in PARAM_SPECS]

    def copy(self) -> "ModelParams":
        # from the Tensors, so the copy keeps their dtype; join_flat makes a new vector
        return ModelParams(self._tensors)


def init_rng(seed: int) -> np.random.Generator:
    """The parameter-init stream of a run seed, apart from its data and shuffle streams."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(_INIT_TAG,)))


def init_params(rng: np.random.Generator) -> ModelParams:
    """He-style scaled uniform weights (variance 2/fan_in), zero biases."""
    arrays = {}
    for name, shape in PARAM_SPECS:
        if name.endswith("_b"):
            arrays[name] = np.zeros(shape, dtype=ad.default_dtype())
            continue
        if name == "us_deconv_w":
            # stride equals kernel size, so each output sums one tap per input channel
            fan_in = shape[0]
        else:
            fan_in = int(np.prod(shape[1:]))
        bound = np.sqrt(6.0 / fan_in)
        arrays[name] = rng.uniform(-bound, bound, size=shape).astype(ad.default_dtype())
    return ModelParams(arrays)


def channel_attention(x: Tensor, params: ModelParams) -> Tensor:
    """Gate each plane by a sigmoid of the spatially averaged 2-channel conv map."""
    m = ad.conv2d(ad.relu(ad.conv2d(x, params["ca_conv1_w"], params["ca_conv1_b"])),
                  params["ca_conv2_w"], params["ca_conv2_b"])
    g = ad.sigmoid(ad.pool_spatial(m, "avg"))
    return ad.scale_channels(x, g)


def spatial_attention(x: Tensor, params: ModelParams) -> Tensor:
    """Gate each location by a sigmoid conv over channel-pooled max/avg maps."""
    pooled = ad.concat_channels(ad.pool_channel(x, "max"), ad.pool_channel(x, "avg"))
    s = ad.sigmoid(ad.conv2d(pooled, params["sa_conv_w"], params["sa_conv_b"]))
    return ad.mul_elementwise(x, s)


def feature_extract(x: Tensor, params: ModelParams) -> Tensor:
    """Four convs with a residual link from the first conv's output to the last."""
    a = ad.relu(ad.conv2d(x, params["fe_conv1_w"], params["fe_conv1_b"]))
    b = ad.relu(ad.conv2d(a, params["fe_conv2_w"], params["fe_conv2_b"]))
    c = ad.relu(ad.conv2d(b, params["fe_conv3_w"], params["fe_conv3_b"]))
    d = ad.conv2d(c, params["fe_conv4_w"], params["fe_conv4_b"])
    return ad.relu(ad.add(a, d))


def upsample(x: Tensor, params: ModelParams, target) -> Tensor:
    """Transposed conv at stride (9,5), then top-left crop to (N_f, N_t)."""
    y = ad.conv2d_transpose(x, params["us_deconv_w"], params["us_deconv_b"], UPSAMPLE_STRIDE)
    return ad.crop2d(y, target[0], target[1])


def forward(x: Tensor, params: ModelParams, target=(128, 28), bypass_attention: bool = False) -> Tensor:
    """Full pipeline [B, 2, N_f_p, N_t_p] -> [B, 2, N_f, N_t].

    bypass_attention skips both gates (plain SR network, used for ablation).
    """
    if x.data.ndim != 4 or x.data.shape[1] != 2:
        raise ValueError(f"expected [B, 2, N_f_p, N_t_p] input, got shape {x.shape}")
    if not bypass_attention:
        x = spatial_attention(channel_attention(x, params), params)
    return upsample(feature_extract(x, params), params, target)


# ---------------------------------------------------------------------------
# named-record files (checkpoints; the Fisher file reuses this layout)
# ---------------------------------------------------------------------------

def write_records(path: str, records, magic: bytes, version: int = 1) -> None:
    """records: iterable of (name, ndarray); stored as float32 row-major."""
    parts = [magic, struct.pack("<I", version)]
    for name, arr in records:
        raw = name.encode("utf-8")
        arr = np.ascontiguousarray(arr, dtype=np.float32)
        parts.append(struct.pack("<I", len(raw)))
        parts.append(raw)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.tobytes())
    atomic_write_bytes(path, b"".join(parts))


def read_records(path: str, magic: bytes):
    """Inverse of write_records: list of (name, float32 ndarray)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8 or raw[:4] != magic:
        raise ValueError(f"{path}: bad magic, expected {magic!r}")
    (version,) = struct.unpack_from("<I", raw, 4)
    if version != 1:
        raise ValueError(f"{path}: unsupported version {version}")
    records, off = [], 8
    try:
        while off < len(raw):
            (nlen,) = struct.unpack_from("<I", raw, off)
            off += 4
            name = raw[off : off + nlen].decode("utf-8")
            off += nlen
            (rank,) = struct.unpack_from("<I", raw, off)
            off += 4
            dims = struct.unpack_from(f"<{rank}I", raw, off)
            off += 4 * rank
            count = int(np.prod(dims)) if rank else 1
            arr = np.frombuffer(raw, dtype="<f4", count=count, offset=off).reshape(dims).copy()
            off += 4 * count
            records.append((name, arr))
    except (struct.error, ValueError) as e:
        raise ValueError(f"{path}: truncated or corrupt record stream") from e
    if off != len(raw):
        raise ValueError(f"{path}: trailing bytes after last record")
    return records


DASR_MAGIC = b"DASR"


def save_params(params: ModelParams, path: str) -> None:
    write_records(path, [(n, params[n].data) for n in params.names()], DASR_MAGIC)


def load_params(path: str) -> ModelParams:
    records = read_records(path, DASR_MAGIC)
    arrays = dict(records)
    if len(arrays) != len(records):
        raise ValueError(f"{path}: duplicate parameter names")
    return ModelParams(arrays)
