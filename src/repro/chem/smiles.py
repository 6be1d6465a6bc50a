"""A mini SMILES dialect: the parser.

Supports the subset of SMILES that covers drug-like small molecules:

* organic-subset atoms ``B C N O P S F Cl Br I`` and aromatic
  ``b c n o p s``;
* bracket atoms with charge and explicit hydrogen count (``[NH+]``,
  ``[O-]``, ``[nH]``);
* single/double/triple bonds (``-``, ``=``, ``#``) and implicit single
  or aromatic bonds;
* branches ``( ... )`` and ring-closure digits ``1``–``9`` plus ``%nn``.

Stereochemistry and isotopes are out of scope: the DrugTree queries this
library reproduces never inspect them.
"""

from __future__ import annotations

from repro.chem.mol import Atom, Molecule
from repro.errors import ChemError

_ORGANIC_TWO_CHAR = ("Cl", "Br")
_ORGANIC_ONE_CHAR = set("BCNOPSFI")
_AROMATIC_CHARS = set("bcnops")
_BOND_CHARS = {"-": 1, "=": 2, "#": 3}


class _SmilesParser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.mol = Molecule()
        self.prev_atom: int | None = None
        self.pending_bond: tuple[int, bool] | None = None  # (order, aromatic)
        self.branch_stack: list[int | None] = []
        self.ring_openings: dict[int, tuple[int, tuple[int, bool] | None]] = {}

    def parse(self) -> Molecule:
        if not self.text:
            raise ChemError("empty SMILES")
        while self.pos < len(self.text):
            char = self.text[self.pos]
            if char == "(":
                if self.prev_atom is None:
                    raise ChemError("branch before any atom")
                self.branch_stack.append(self.prev_atom)
                self.pos += 1
            elif char == ")":
                if not self.branch_stack:
                    raise ChemError("unbalanced ')' in SMILES")
                self.prev_atom = self.branch_stack.pop()
                self.pos += 1
            elif char in _BOND_CHARS:
                self.pending_bond = (_BOND_CHARS[char], False)
                self.pos += 1
            elif char == ":":
                self.pending_bond = (1, True)
                self.pos += 1
            elif char == ".":
                if self.pending_bond is not None:
                    raise ChemError("bond symbol before '.' separator")
                if self.prev_atom is None:
                    raise ChemError("'.' separator before any atom")
                self.prev_atom = None
                self.pos += 1
            elif char.isdigit() or char == "%":
                self._ring_closure()
            elif char == "[":
                self._bracket_atom()
            else:
                self._organic_atom()
        if self.branch_stack:
            raise ChemError("unbalanced '(' in SMILES")
        if self.ring_openings:
            numbers = sorted(self.ring_openings)
            raise ChemError(f"unclosed ring bond(s): {numbers}")
        if self.pending_bond is not None:
            raise ChemError("dangling bond at end of SMILES")
        self.mol.demote_nonring_aromatic_bonds()
        return self.mol.freeze()

    # -- token handlers -------------------------------------------------

    def _organic_atom(self) -> None:
        text = self.text
        if text.startswith(_ORGANIC_TWO_CHAR, self.pos):
            element = text[self.pos:self.pos + 2]
            self.pos += 2
            self._attach(Atom(element))
            return
        char = text[self.pos]
        if char in _ORGANIC_ONE_CHAR:
            self.pos += 1
            self._attach(Atom(char))
            return
        if char in _AROMATIC_CHARS:
            self.pos += 1
            self._attach(Atom(char.upper(), aromatic=True))
            return
        raise ChemError(
            f"unexpected character {char!r} at position {self.pos}"
        )

    def _bracket_atom(self) -> None:
        end = self.text.find("]", self.pos)
        if end < 0:
            raise ChemError("unterminated bracket atom")
        body = self.text[self.pos + 1:end]
        self.pos = end + 1
        if not body:
            raise ChemError("empty bracket atom")

        cursor = 0
        aromatic = False
        if body.startswith(_ORGANIC_TWO_CHAR):
            element = body[:2]
            cursor = 2
        elif body[0] in _AROMATIC_CHARS:
            element = body[0].upper()
            aromatic = True
            cursor = 1
        elif body[0].isupper():
            element = body[0]
            cursor = 1
        else:
            raise ChemError(f"bad bracket atom [{body}]")

        hydrogens = 0
        explicit_h = False
        charge = 0
        while cursor < len(body):
            char = body[cursor]
            if char == "H":
                explicit_h = True
                cursor += 1
                digits = ""
                while cursor < len(body) and body[cursor].isdigit():
                    digits += body[cursor]
                    cursor += 1
                hydrogens = int(digits) if digits else 1
            elif char in "+-":
                sign = 1 if char == "+" else -1
                cursor += 1
                digits = ""
                while cursor < len(body) and body[cursor].isdigit():
                    digits += body[cursor]
                    cursor += 1
                if digits:
                    charge = sign * int(digits)
                else:
                    charge = sign
                    while cursor < len(body) and body[cursor] == char:
                        charge += sign
                        cursor += 1
            else:
                raise ChemError(
                    f"unsupported bracket-atom feature {char!r} in [{body}]"
                )
        atom = Atom(element, aromatic=aromatic, charge=charge,
                    explicit_hydrogens=hydrogens if explicit_h else 0)
        self._attach(atom)

    def _ring_closure(self) -> None:
        char = self.text[self.pos]
        if char == "%":
            digits = self.text[self.pos + 1:self.pos + 3]
            if len(digits) != 2 or not digits.isdigit():
                raise ChemError("'%' ring closure needs two digits")
            number = int(digits)
            self.pos += 3
        else:
            number = int(char)
            self.pos += 1
        if self.prev_atom is None:
            raise ChemError("ring closure before any atom")
        bond_spec = self.pending_bond
        self.pending_bond = None
        if number in self.ring_openings:
            open_atom, open_spec = self.ring_openings.pop(number)
            spec = bond_spec or open_spec
            if spec is None:
                both_aromatic = (
                    self.mol.atoms[open_atom].aromatic
                    and self.mol.atoms[self.prev_atom].aromatic
                )
                spec = (1, both_aromatic)
            order, aromatic = spec
            self.mol.add_bond(open_atom, self.prev_atom, order, aromatic)
        else:
            self.ring_openings[number] = (self.prev_atom, bond_spec)

    def _attach(self, atom: Atom) -> None:
        index = self.mol.add_atom(atom)
        if self.prev_atom is not None:
            if self.pending_bond is not None:
                order, aromatic = self.pending_bond
            else:
                both_aromatic = (
                    self.mol.atoms[self.prev_atom].aromatic and atom.aromatic
                )
                order, aromatic = 1, both_aromatic
            self.mol.add_bond(self.prev_atom, index, order, aromatic)
        self.pending_bond = None
        self.prev_atom = index


def parse_smiles(text: str, name: str = "") -> Molecule:
    """Parse SMILES *text* into a frozen :class:`Molecule`."""
    try:
        mol = _SmilesParser(text.strip()).parse()
    except ChemError as exc:
        raise ChemError(f"bad SMILES {text!r}: {exc}") from None
    mol.name = name or text.strip()
    return mol
