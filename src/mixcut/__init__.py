"""Balanced max-cut clustering of two-component Bernoulli product mixtures.

Sample balanced datasets from a mixture over {0,1}^K, build score or
Hamming graphs over the 2N points, recover the hidden partition as a
maximum-weight balanced cut (exact, hill-climbing, or spectral), evaluate
the theory's bound calculators, and run reproducible Monte Carlo sweeps.
"""

__version__ = "0.1.0"
