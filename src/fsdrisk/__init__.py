"""Risk functionals on finite loss distributions.

The package is organized around the dominance order on compactly
supported distributions: dist holds the lattice, kernels the sup- and
inf-form evaluation, measures the named functionals, engine the
constructive recovery of kernels from black-box measures, harness the
randomized axiom checks, and jsonio plus cli the file formats and
command line on top.  The modules are the API: the root exports only
``__version__``, so importing a module loads just what it needs.
"""

__version__ = "0.1.0"
