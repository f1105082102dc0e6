"""A forked worker that runs one function while its caller runs the rest: verify's
arith grids, or a share of a big table's rows and of their text (report)."""

import os
import pickle
import signal
from contextlib import contextmanager


@contextmanager
def _in_worker(fn, label: str):
    """Run fn() in a forked child while the with-block runs; yield a list that
    fn's result (a list) extends when the block ends, or raise fn's exception.
    The child pickles (ok, result or exception) into a pipe.  One that sends
    nothing raises ChildProcessError, naming label; if the block raises, the
    child is killed and reaped.  Without os.fork, fn runs in process, at once.
    """
    if not hasattr(os, "fork"):
        yield fn()
        return
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            try:
                reply = (True, fn())
            except BaseException as exc:
                reply = (False, exc)
            with open(write, "wb") as pipe:
                pipe.write(pickle.dumps(reply))
        finally:
            os._exit(0)  # no exit handler runs, no inherited buffer is flushed
    os.close(write)
    result: list = []
    try:
        yield result
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        with open(read, "rb") as pipe:
            data = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code or not data:
        raise ChildProcessError(f"{label} exited with status {code}")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    result += value
