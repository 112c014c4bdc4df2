"""The repository benchmark (see README.md)."""
