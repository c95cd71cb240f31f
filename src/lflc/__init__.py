"""Scalable light-field codec for additive layered displays.

The toolkit covers the full chain: fitting additive display-layer patterns
to a 4D light field, factoring the layers into scalable weighted-binary
images, compressing the grayscale basis images with an RBM-pretrained deep
autoencoder, and serializing everything into a progressive, truncatable
container. Rate-distortion sweeps and Bjontegaard metrics round it out.
Import names from their submodules, e.g. ``from lflc.pipeline import
encode_light_field``.
"""

__version__ = "0.1.0"
