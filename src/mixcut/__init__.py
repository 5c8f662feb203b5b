"""Balanced max-cut clustering of two-component Bernoulli product mixtures.

Sample balanced datasets from a mixture over {0,1}^K, build the Hamming
graph over the 2N points, recover the hidden partition as its
maximum-weight balanced cut (exact, hill-climbing, or spectral), weigh cuts
in Hamming or score units from the rows, evaluate the theory's bound
calculators, and run reproducible Monte Carlo sweeps.
"""

__version__ = "0.1.0"
