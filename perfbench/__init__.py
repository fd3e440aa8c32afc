"""Frame-to-alert benchmark of the serving stack (see README.md)."""
