"""Repository benchmark: kernel, serve and churn workloads (see README.md)."""
