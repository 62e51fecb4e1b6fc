"""Host wall-clock benchmark of the co-designed VM (see README.md)."""
