"""opbar: exact-arithmetic bar and cobar constructions for reduced operads.

The package computes, over Z or Q, the homology of algebraic bar/cobar
complexes built from decorated labelled trees, partition poset complexes,
Koszul duals and the operad of derivatives of the identity, together with
the structure maps (cocompositions, compositions, module actions) induced
on homology.
"""

__version__ = "0.1.0"
