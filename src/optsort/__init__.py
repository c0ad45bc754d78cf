"""Sorting-network based rewriting of ground ASP optimization statements.

The package splits into the combinatorial core (`network`, `propagate`), the
semantic oracle (`asplang`, `encode`), the wire format (`aspif`), the rewrite
pipeline (`rewrite`), the propagator-model analysis (`analysis`) and a CLI
(`cli`).  The package itself re-exports nothing: import from the modules.
"""
