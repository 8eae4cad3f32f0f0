"""Checker and normalizer for semistrict higher-categorical terms.

Definitional equality is decided by reduction to unique normal forms
under three rewrite rules: disc removal, endo-coherence removal, and
insertion.  The package re-exports nothing: import from the module that
defines a name.  ``cli`` is the entry point; ``harness`` holds the
generators, independent oracles and metatheory helpers, and no kernel
module imports it.  See the README for the surface language, the CLI
and the code layout.
"""

__version__ = "0.1.0"
