"""Compactly supported self-similar densities and their probabilistic samplers.

The package is organised bottom-up:

    specfun      log-gamma, incomplete beta (and inverse), Bessel J,
                 sphere measure, adaptive Gauss-Kronrod 7/15 quadrature
                 (15 evaluations per panel give value and error estimate)
    family       the density family itself: pdf/cdf, moments, support
    sampling     exact samplers (inverse-cdf radius, uniform directions,
                 signed telegraph-type integral) on a deterministic RNG
    transforms   characteristic functions, Erdelyi-Kober operator,
                 singular-damped d'Alembert formula
    presets      parameter maps from named PDE problems into the family
    fractional   Riemann-Liouville derivative and the quadratic
                 time-fractional solution
    verify       finite-difference residual harness and check suites
    cli          command line front end
"""

__version__ = "0.1.0"
