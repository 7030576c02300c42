"""Host-time benchmark for the pervasive-grid reproduction (see README.md)."""
