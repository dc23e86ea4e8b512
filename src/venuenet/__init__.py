"""venuenet: venue-level knowledge and citation networks from publication corpora.

The Python API is `venuenet.synth` and `venuenet.corpus` (for `save_corpus`);
everything else runs through the `venuenet` command.
"""

__version__ = "0.1.0"

__all__ = ["corpus", "synth"]
