"""Time-sensitive key-policy attribute encryption and the distribution
machinery around it: transparent pairing oracle, time-tree covers, linear
secret sharing, hybrid content envelopes, a named-data cache simulator,
and a revocation ledger."""
