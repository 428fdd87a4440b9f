"""Synthesis output is pinned byte for byte.

A change that alters proofs on purpose updates PINNED and says which
proofs grew.  The hash is SHA-256 over the concatenated `write_text` of
every proof, in enumeration order."""

import hashlib

from posprop.formula import enumerate_formulas
from posprop.kalmar import prove
from posprop.kernel import CalculusId
from posprop.proofio import write_text
from posprop.semantics import is_tautology
from posprop.transform import prove_I

PINNED = "391cff24d355eb0c423a6ea87d094f385cf57dd36d12f750abafd1233ea94509"


def _tautologies(max_connectives, atom_indices, language):
    return [f for f in enumerate_formulas(max_connectives, atom_indices, language)
            if is_tautology(f)]


def test_synthesis_proof_text_is_pinned():
    sweep = _tautologies(3, [1, 2], CalculusId.ID)
    implicative = _tautologies(3, [1, 2, 3], CalculusId.I)
    assert (len(sweep), len(implicative)) == (346, 156)
    h = hashlib.sha256()
    for d in ([prove(f, CalculusId.ID) for f in sweep]
              + [prove_I(f) for f in implicative]):
        h.update(write_text(d).encode())
    assert h.hexdigest() == PINNED
