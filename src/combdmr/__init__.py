"""Realise integer distance matrices by unweighted graphs.

Decides whether an n x n integer distance matrix is the anchor metric of an
unweighted graph on at most n + k vertices (exactly for k in {0, 1, 2}, by
exhaustive search for general small k), decides tree realisability, and
builds colourability gadget instances.  The package root binds no names:
import each from the module that defines it (``combdmr.matrix``, ...).
"""
