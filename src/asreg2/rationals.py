"""The number backend that the benchmark reports with every run.

Every exact rational in this package is a stdlib ``fractions.Fraction``,
met only at the boundary of the cyclotomic kernel (``asreg2.cyclotomic``).
"""

BACKEND = "fraction"
