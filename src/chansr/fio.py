"""Small file helpers shared by dataset, checkpoint, and report writers."""

import os


def atomic_write_bytes(path: str, pieces) -> None:
    """Write an iterable of bytes-like pieces, in order, to a temp file in the same
    directory, then rename it over the target. Pieces are written as they come, so a
    writer never holds an image of the whole file; if the iterable raises part-way,
    the temp file is removed and the target keeps its old bytes.

    The temp file is opened with mode 0666 less the umask, as a plain open would
    create the target (tempfile.mkstemp would make it 0600).
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            for piece in pieces:
                fh.write(piece)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, [text.encode("utf-8")])
