"""End-to-end benchmark of the policy-atom pipeline (see README.md)."""
