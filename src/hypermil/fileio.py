"""File access shared by the package: atomic writes (a temp file in the
target directory, then a rename) and the one JSON reader, which maps a
malformed document to the caller's typed error."""

import json
import os


def read_json(path, error):
    """The JSON document in the UTF-8 file at `path`.

    A document that is not valid JSON, or that nests deeper than the parser
    recurses, raises `error` (a `HypermilError` class) naming `path`; an
    OSError from opening the file passes through.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:  # nested too deeply
            raise error(f"{path} is not valid JSON: {exc}") from None


def atomic_write_bytes(path, payload):
    """Write `payload` to `path` through a temp file renamed over it.

    The file ends with the mode `open()` would give it: a replaced file
    keeps its mode, and a new one gets 0o666 less the umask, which the temp
    file is created with. An OSError names `path`, not the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(payload)
            if os.path.exists(path):
                os.chmod(tmp, os.stat(path).st_mode & 0o7777)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None


def atomic_write_text(path, text):
    atomic_write_bytes(path, text.encode("utf-8"))
