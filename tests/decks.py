"""Deck groups shared by the orbit tests: the bundled ones and two custom ones.

``rotated_klein`` is a Klein bottle deck whose lattice is not axis-aligned
and whose glide reflection has non-integer matrix entries (3/5, 4/5), so
the integer kernel must carry the matrix denominator. ``p4m`` is the
square-lattice orbifold group with all eight symmetries of the square as
coset representatives; points on its mirror lines have several elements
with the same image, so hit order there falls to ``Isometry.sort_key``.
``lattice_scan`` reads the one lattice scan as (coords, vector, distance)
triples, for the tests that check it against a brute-force scan.
"""

from fractions import Fraction

from orbitlab.euclid import Isometry
from orbitlab.groups import DECK_GROUP_NAMES, DeckGroup, TranslationLattice, builtin_deck_group, zk_deck

F = Fraction


def rotated_klein_deck() -> DeckGroup:
    lat = TranslationLattice([(1, 2), (2, -1)])
    s = Isometry([[F(3, 5), F(-4, 5)], [F(-4, 5), F(-3, 5)]], (1, F(-1, 2)))
    translations = tuple(Isometry.translation_by(b) for b in lat.basis)
    return DeckGroup(2, lat, (Isometry.identity(2), s), name="rotated-klein",
                     word_generators=(s,) + translations)


def p4m_deck() -> DeckGroup:
    mats = [
        [[1, 0], [0, 1]], [[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, 1], [-1, 0]],
        [[1, 0], [0, -1]], [[-1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1], [-1, 0]],
    ]
    reps = tuple(Isometry(m, (0, 0)) for m in mats)
    return DeckGroup(2, TranslationLattice([(1, 0), (0, 1)]), reps, name="p4m")


CUSTOM_DECKS = {"rotated-klein": rotated_klein_deck, "p4m": p4m_deck}
DECK_NAMES = DECK_GROUP_NAMES + ("z2", "z3") + tuple(CUSTOM_DECKS)


def lattice_scan(lattice: TranslationLattice, target, limit) -> list:
    """(coords, vector, |vector - target|^2) of every lattice vector that
    ``TranslationLattice._enumerate`` keeps under ``limit`` (a
    ``groups._ball_limit`` or ``groups._plus_sqrt_limit``), in scan order."""
    quad = lattice._quadratic(tuple(Fraction(x) for x in target))
    return [(m, lattice.vector(m), Fraction(q, quad.scale))
            for q, m in lattice._enumerate(quad, limit(quad.scale))]


def deck(name: str) -> DeckGroup:
    if name in CUSTOM_DECKS:
        return CUSTOM_DECKS[name]()
    if name in ("z2", "z3"):
        return zk_deck(int(name[1]))
    return builtin_deck_group(name)


def klein_doubled_deck() -> DeckGroup:
    """A subgroup of klein2 of index 2 that keeps the glide reflection."""
    lattice = TranslationLattice([(2, 0), (0, 2)])
    return DeckGroup(2, lattice, deck("klein2").coset_reps, name="klein-doubled")


def p4_deck() -> DeckGroup:
    """The rotation subgroup of p4m, of index 2."""
    whole = deck("p4m")
    return DeckGroup(2, whole.lattice, whole.coset_reps[:4], name="p4")


# subgroup name -> (the deck it sits in, its constructor)
SUBGROUPS = {"klein-doubled": ("klein2", klein_doubled_deck), "p4": ("p4m", p4_deck)}
