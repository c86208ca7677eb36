"""Close evaluation of double-layer potentials for the interior Laplace
problem in 2D and 3D, with asymptotic near-boundary approximations, a
forward-peaked scattering operator toolbox, and an error-study harness.

Each name is imported from its module, e.g.
``from closeeval.closeeval2d import close_eval_2d``."""

__version__ = "0.1.0"
