"""The ``--out`` file writer: :mod:`kneading.cli` imports it only when the
command line passes ``--out``, and ``reproduce`` only for its report
directory, so a command that prints compiles none of it."""

import os


def _require_dir(d: str):
    if not os.path.isdir(d or "."):
        raise ValueError(f"no such output directory: {d}")


def _atomic_write(path: str, text: str):
    import tempfile
    _require_dir(os.path.dirname(path))
    if os.path.isdir(path):
        raise ValueError(f"output path is a directory: {path}")
    d = os.path.dirname(os.path.abspath(path))
    # a path the OS refuses to create or to rename to is bad input (exit 2),
    # reported by the user's name for it, not by the temporary file's; a
    # write that fails (a full disk) is the environment's and stays OSError
    try:
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-")
    except OSError as e:
        raise ValueError(f"cannot write {path}: {e.strerror or e}") from None
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        # mkstemp made the file 0600; give it the mode open(path, "w") would,
        # 0666 less the umask, which is read by setting it
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        try:
            os.replace(tmp, path)
        except OSError as e:
            raise ValueError(f"cannot write {path}: {e.strerror or e}") from None
    except BaseException:
        os.unlink(tmp)
        raise
