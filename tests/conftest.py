import contextlib

from posprop import kernel


@contextlib.contextmanager
def proof_log():
    """Record (hypotheses, conclusion) of every derivation kernel.verify
    passes while the block runs, in a list it yields: all a semantic audit
    needs, and cheaper to keep than whole step lists.  verify looks up
    kernel.check at call time, so wrapping that name sees each of its
    checks, and a check that finds errors is not recorded."""
    records = []
    check = kernel.check

    def recording_check(d):
        errors = check(d)
        if not errors:
            records.append((d.hypotheses, d.conclusion))
        return errors

    kernel.check = recording_check
    try:
        yield records
    finally:
        kernel.check = check
