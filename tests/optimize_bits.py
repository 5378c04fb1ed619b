"""Solver results pinned to the bit, for test_optimize.py's bit-identity tests.

SIMPLEX, SIMPLEX_TIES and CLI_STDOUT['grid-simplex'] were re-recorded when
the simplex search dropped its grid stage and started at the medial
configuration, a deliberate change of numerics.  The symmetric shapes of
SIMPLEX_TIES make vertex perimeters tie, so the order among equal values,
the one a stable sort gives, decides the next step.
DESCENT and CLI_STDOUT['reflection'] were re-recorded when the reflection
descent gained its Anderson extrapolation, a deliberate change of numerics.
Floats are float.hex strings and each history is its length and SHA-256
digest (see test_optimize.result_bits).
"""

# shape index: minimize_grid_then_simplex(shape)
SIMPLEX = {
    0: (('0x1.f27aab14ef67ap-3', '0x1.5697f6431737ap-2', '0x1.b8b7adf5cf579p-1'), '0x1.1c4441f3b241cp+1', 114, True, False, None, 60, '769d12f0c69398054ac2e332b4e471c575f7f1d87300bed5dfbe9e092aeb8c47'),
    1: (('0x1.b9a89726bfebfp-2', '0x1.e69d078bc11e2p-2', '0x1.2f8a494ba9b02p-1'), '0x1.499b4473d646dp+1', 114, True, False, None, 64, '1c9313831003f95c3d359d0bf318798da16d9a9e143c6e838080494889d0aa20'),
    2: (('0x1.dc71eab2ec3ecp-1', '0x1.9773b7df7e5acp-4', '0x1.9cdcdfe2c2d18p-2'), '0x1.0f860219fff54p+1', 114, True, False, None, 49, '2fe28ba409f0e657e2827ecb38db5e9bc5ca7159c0c09b0df70b70cc23efd887'),
    3: (('0x1.d7b01db7a1468p-3', '0x1.e382103a47f06p-1', '0x1.50f3b0039e776p-3'), '0x1.debbb94a897fdp+0', 109, True, False, None, 54, '752d6c85884e70ea74373d566a0ee1672a6499034688dc3275c5effaba793368'),
    4: (('0x1.f0df810ee4f33p-1', '0x1.54af074d6889cp-1', '0x1.ee1694192733ap-7'), '0x1.a9214259e0695p-1', 122, True, False, None, 54, '792c6bba8b969e67b3c0a7fa75ae3180c8965d87f535816f6db399793ca952b1'),
    5: (('0x1.5b64102470cfap-3', '0x1.a2654a3249b24p-2', '0x1.c0add25493906p-1'), '0x1.1dcf3548c5f5cp+1', 108, True, False, None, 43, '44fb30435d7b5d8c9d8535edc32ce4de1ce079774757af578fae353822979d82'),
    6: (('0x1.2f0257860a6f0p-8', '0x1.f1fedd8dba377p-1', '0x1.b76b1ad8481c8p-1'), '0x1.690f9c035111ap-1', 126, True, False, None, 59, '81cb1466daa4e3892b9435d18c748097abfde29b68a6acfa40bfbe9fad2d54bd'),
    7: (('0x1.4ac9bc72af1b4p-6', '0x1.ceebd99ebc4fep-3', '0x1.fceff10ab2eb2p-1'), '0x1.b1e999d8ddb27p+0', 112, True, False, None, 56, '20599868de75fbfcafb6008fddb2b7eb7b45f6cc1e2882a408ce4225cfa3378d'),
    8: (('0x1.66b62a11991b0p-3', '0x1.585520345b780p-1', '0x1.64866293b6762p-1'), '0x1.24165e7881bc7p+1', 109, True, False, None, 56, 'e551226281928bb463bdf03d957fee214bedc2d74c0eb4761fafab760f2a70d2'),
    9: (('0x1.bf7a081f05cb8p-1', '0x1.cf79225897dcap-1', '0x1.e75aef7343caap-7'), '0x1.671ced82a26c8p+0', 123, True, False, None, 52, '0fb15eb06f83bd705e0be111f93f880b196bfe40c9b19045bc3015beec73186f'),
    10: (('0x1.a41670e12d988p-2', '0x1.87ac35719e9e5p-1', '0x1.39b37bc69771cp-2'), '0x1.35117032776c0p+1', 108, True, False, None, 52, '537dc47e84fb349b29d6f623858aa9d9b637654290a83c584ca41b5d36c2cc1c'),
    11: (('0x1.7a249149d67c4p-2', '0x1.0ee68e550fc8fp-2', '0x1.a6ed77b75c5c6p-1'), '0x1.1b3930cd3bab4p+1', 110, True, False, None, 53, 'bfd549ca706406bf506ca2ad8cfaae7a6cab5dc6acef01e566cd53cbe8caf6a2'),
    12: (('0x1.62e386cc32939p-4', '0x1.1dcf9f64ed63ep-1', '0x1.c9327ba25b9acp-1'), '0x1.15a19d4dd9887p+1', 117, True, False, None, 54, 'b5f88fad5858511d66951a2d1487a33ae435d8a47f743bf4e27da193f54bec4a'),
    13: (('0x1.5a012b32f51ecp-1', '0x1.76d3d36a5e8c9p-2', '0x1.d0b57a38cd7acp-2'), '0x1.423771ec8c1b3p+1', 102, True, False, None, 49, '120bfc2865eef023e150819cdf27f5ed68a463dcc5c0e46c64eaad936be18494'),
    14: (('0x1.832a31f2dc773p-1', '0x1.f40a77f5b208ep-3', '0x1.ff86871a1269cp-2'), '0x1.34d62e8b9a570p+1', 101, True, False, None, 55, 'bd8b89249b46bfaf4afe752c81f675a99bc289e4cef676f64ce27fc114e5f132'),
    15: (('0x1.9676db3dad57ep-1', '0x1.b5d8a0579578cp-1', '0x1.590e503c3f676p-5'), '0x1.c57efede463a3p+0', 125, True, False, None, 57, 'dfb6eff348cf787bdf64a3282a4acb58e621b47cb85c72ec38ff444b2ee7e5b2'),
    16: (('0x1.3775950c2ee48p-2', '0x1.39b5fdd97f4b6p-1', '0x1.2eae699ef2bccp-1'), '0x1.3ea38bf51ffcfp+1', 104, True, False, None, 50, '02611d26fabe8a9440a1c5f2dbb4afaf93f20a6c64906300bc897ec34778ee37'),
    17: (('0x1.120392dc973bfp-1', '0x1.372f95f9eb362p-1', '0x1.6fc9b1ffafb04p-2'), '0x1.45d6ad7f23b3ap+1', 104, True, False, None, 47, 'dee6767472e030f65197a6d89f077932cc0eefa643ac31daabcae1089a656f4a'),
    18: (('0x1.01f7540c04509p-1', '0x1.74eaa51f994cep-2', '0x1.43b784860c5f7p-1'), '0x1.437aa9843fc54p+1', 107, True, False, None, 55, 'c4a7109a8f1bd75bbd6d7f86fe224e17e4702bf4b11c8d19494400e12338c35e'),
    19: (('0x1.a2a6e954e59d0p-1', '0x1.7c85fee84acc2p-2', '0x1.1862261450bc8p-2'), '0x1.1eb04b3d7a1adp+1', 108, True, False, None, 49, '33ceb84e64186f5b02ac5f6548d2164c1b5eae69b2115003d767e41d590f38d8'),
    20: (('0x1.a3c28f08a35b0p-2', '0x1.9aa09397074e5p-1', '0x1.0c7cbd0e9b7d6p-2'), '0x1.2e3204b8ebce4p+1', 101, True, False, None, 49, 'f965f8127a501bc58a95125d0822adfb062f1997422e835a867a05c895910d51'),
    21: (('0x1.0b7c7d9b3f523p-3', '0x1.fa8683da22b9cp-1', '0x1.12e71a0d277e0p-4'), '0x1.66cb73587749ap+0', 134, True, False, None, 64, 'c6b60d6d41627da57fefca69e668502b695ae2f6679c23fac0e502c142bd5009'),
    22: (('0x1.edbc258b15144p-3', '0x1.ebc8679e0fb4cp-2', '0x1.8bd0e1a04d186p-1'), '0x1.32ee851f54adbp+1', 107, True, False, None, 47, '1d88dcc7b5440a3cb63222cf3fb076be974342f70638829f98b48a985b4c34c5'),
    23: (('0x1.1ece6c3f57bcbp-4', '0x1.025d9a601e65cp-1', '0x1.db8730d44201dp-1'), '0x1.11627fd658f1cp+1', 109, True, False, None, 57, '834c5ce3cfffd5df6ba4da6bf34e4168abfb1f30a80a09ef39ea3de3cdb11ee3'),
    24: (('0x1.73444b9a8e650p-6', '0x1.ef80877094858p-1', '0x1.2dd26b6fcafcep-1'), '0x1.d5d5f9913283ep-1', 134, True, False, None, 64, 'e89fb2716d9d78eaecfcadad4bb829d13b4864c087da8fe78be702bbc5708f08'),
    25: (('0x1.f4584349d23d0p-4', '0x1.c26341215483ep-1', '0x1.fba1c3914ed4ap-2'), '0x1.cb19685b6b018p+0', 117, True, False, None, 53, '13e4a4348dee3b45c28ba06e43ff052270135a1e0104b49e8fd5ee4e03371202'),
    26: (('0x1.bad8628d08529p-4', '0x1.19ec3336d5720p-1', '0x1.bdc8a64ec79a4p-1'), '0x1.1af9858ffa64ap+1', 111, True, False, None, 58, '11a28e79f576ae9f97b06bcaf0bc6d8e785e218bad3d286a5fe6fd1375ae73be'),
    27: (('0x1.562a25ee21781p-4', '0x1.5906bdea29bf0p-1', '0x1.aed9875001714p-1'), '0x1.0be7d1f826af8p+1', 115, True, False, None, 53, '247141ca47f72c292308e88612d2d1103503b2e64e2cdbade4a7367e8c11db4e'),
    28: (('0x1.829aee7a6a182p-2', '0x1.f28727dd9afb2p-1', '0x1.5d6ac01a94525p-5'), '0x1.00a50733cf8fdp+1', 126, True, False, None, 57, '58300ee4519d6a03ff15da00e8a6b09f2e21aa663ee85269aaeba0478f707bf0'),
    29: (('0x1.14ceb8ee47601p-1', '0x1.29ea8474b3fa4p-2', '0x1.5944ada9807acp-1'), '0x1.387d4110b79e8p+1', 94, True, False, None, 52, '9f38ea9d9e90d0e16c276dd3b1522c3103d0faa45b012e3512b1a664aa7486c0'),
    30: (('0x1.028f61c8a32a4p-1', '0x1.fad442c42f912p-1', '0x1.4472497159023p-7'), '0x1.0288c34f4ae17p+1', 116, True, False, None, 45, '79a2cf8340e18c048b6eadcda380f44a4eba2c815ee1222c6d457966d5ee3d03'),
    31: (('0x1.00c49bc5c8092p-1', '0x1.fe759b635c1e3p-1', '0x1.880a696e5d982p-9'), '0x1.00c40459fd30ep+1', 132, True, False, None, 57, '7b5b59ff58f99099d546bd844e34caf79434fa2583135c0f8d0d22da19ff7c2f'),
    32: (('0x1.004189371baccp-1', '0x1.ff7ccc53b7bd9p-1', '0x1.05e14781d71aep-10'), '0x1.0041786d7781cp+1', 132, True, False, 'parent is within 0.0009999999999998899 rad of right-angled; the minimum is ill-conditioned', 55, '53a81b9305925ef9cc8ff29a18eb2bfb7aa568d2793771936c3b7aecbfbcf4d4'),
    33: (('0x1.b431836244505p-1', '0x1.f3d6f519c1d9cp-1', '0x1.13ec9da87b8e4p-8'), '0x1.70cd66c2d3b40p+0', 128, True, False, None, 61, 'ad23e786669e540e357ec3d0683d545e5b7cb5088a253904d37ae3e358a90686'),
    34: (('0x1.a633e7f0ef66ep-3', '0x1.ffbd287e39d04p-1', '0x1.01047930e4b46p-9'), '0x1.9ec357b1592f8p+0', 128, True, False, 'parent is within 0.0009999999999998899 rad of right-angled; the minimum is ill-conditioned', 50, 'd41a9674cf5c657ebbe4d2e3304353d3297fb6e77a25b6429c8351a72133a2da'),
}

# (shape name, max_iter): minimize_grid_then_simplex(shape, max_iter=max_iter)
SIMPLEX_TIES = {
    ('equilateral', 10000): (('0x1.fffffff5086b8p-2', '0x1.ffffffcbba004p-2', '0x1.0000000b07b76p-1'), '0x1.7ffffffffffffp+0', 128, True, False, None, 2, '86c48db239ac3edb616285016559a9291da83dc9fcfc4e23cc1ac564007086d8'),
    ('golden-bfc', 10000): (('0x1.727c974d7c016p-1', '0x1.8722189b65746p-3', '0x1.3c6ef381c59d3p-1'), '0x1.f24db1094205ap+0', 113, True, False, None, 51, '98e7d2f87ac384b6936446895b5a67da9cb9df27c0377e23e71a3b1d20dbc393'),
    ('isosceles-tall', 10000): (('0x1.9999996100c06p-3', '0x1.9999997bb78c6p-1', '0x1.0000000dfbc0fp-1'), '0x1.cccccccccccccp+1', 105, True, False, None, 51, '26edf10e0f6c459a27ea696a738d48b77731c2e19e84f96190353c36e79d5a2f'),
    ('isosceles-flat', 10000): (('0x1.3b13b129f0fa4p-1', '0x1.89d89d480c5c4p-2', '0x1.ffffff8d4d1b2p-2'), '0x1.6276276276276p+1', 97, True, False, None, 52, '54c9bda6907c32d833b762d0c10851c5aa155f9e02d66886da86ff62a3963227'),
    ('golden-bfc', 1): (('0x1.3ffffffffffffp-1', '0x1.0000000000000p-2', '0x1.3ffffffffffffp-1'), '0x1.f4658023bef02p+0', 1, False, False, None, 2, 'c677db5e9d2e9cca21a6ade51cdda05e39692ee94c8d9c2b5cf4eb2735ece7a1'),
    ('golden-bfc', 5): (('0x1.7555555555556p-1', '0x1.2aaaaaaaaaaacp-3', '0x1.4aaaaaaaaaaa8p-1'), '0x1.f3ab094159421p+0', 5, False, False, None, 3, '280387084dc3b6868090f3f0c6170a74ea43d9a4992b6348b41ef6caa32cb044'),
    ('golden-bfc', 50): (('0x1.727c8ce42cd26p-1', '0x1.8726f47595514p-3', '0x1.3c6e0ad6dc7a5p-1'), '0x1.f24db10a4dbadp+0', 50, False, False, None, 28, '43be8067c7d1764f8affcf55816ae2e0112b8e7c9fde31720a6d83f3aeb36130'),
}

# shape index: minimize_reflection_descent(shape, start)
DESCENT = {
    0: (('0x1.f27aaa2f44a4fp-3', '0x1.5697f6045df5cp-2', '0x1.b8b7ae18ee815p-1'), '0x1.1c4441f3b241dp+1', 10, True, False, None, 10, '580b7f9b2370673caa810126b254d5bd3e696ba1e19146999d7a9be1c6dd0f84'),
    1: (('0x1.b9a896b7d6ee2p-2', '0x1.e69d07de86489p-2', '0x1.2f8a493d5e255p-1'), '0x1.499b4473d646ep+1', 15, True, False, None, 14, '84f9959d232c49376aacc3268b6e0dc45d45ad4a9c929b0c954304056c93d3cf'),
    2: (('0x1.dc71ea816e6c5p-1', '0x1.9773bae1d2e69p-4', '0x1.9cdcdfc46057dp-2'), '0x1.0f860219fff54p+1', 13, True, False, None, 13, '42c4b8dc25275110a3ed5cc7f9e33cce813d9e77ca2694cb719944e716799e01'),
    3: (('0x1.d7b01ddd61559p-3', '0x1.e382100baf2adp-1', '0x1.50f3b268490edp-3'), '0x1.debbb94a897fcp+0', 14, True, False, None, 13, '8796a2255f7cfe9ff3a134c8336902afb1125da9aad5a9a6912b03f94409c977'),
    4: (('0x1.f0df810ac666cp-1', '0x1.54af07b52d6f8p-1', '0x1.ee1691c32ccaap-7'), '0x1.a9214259e0696p-1', 12, True, False, None, 11, 'bbece3cf1d0c375a1ea3700d7d3c332309070e4e72047fea294417d20f583f60'),
    5: (('0x1.5b640e7456209p-3', '0x1.a2654a3c025acp-2', '0x1.c0add2a19c3dfp-1'), '0x1.1dcf3548c5f5cp+1', 13, True, False, None, 13, 'd563104afb6c68117d5a678ff627bd394372c0e05b193fc6f29235857f984691'),
    6: (('0x1.2f02595113fd7p-8', '0x1.f1fedd8ed709dp-1', '0x1.b76b1a9ea6bf8p-1'), '0x1.690f9c035111bp-1', 12, True, False, None, 11, '538379e97c96ef4d24ad1bc3a6ed8e489868df77f4d510df130cf8c741c138ff'),
    7: (('0x1.4ac9d095070f1p-6', '0x1.ceebd9ada9094p-3', '0x1.fceff0e1a485cp-1'), '0x1.b1e999d8ddb28p+0', 15, True, False, None, 15, '2441d7e0105c59525c1261d304bba92f64ffe9f136b5181bba7834fba3e01ace'),
    8: (('0x1.66b62a68e259ep-3', '0x1.585520247ebf7p-1', '0x1.64866296cd071p-1'), '0x1.24165e7881bc8p+1', 12, True, False, None, 12, '71e2f105b1fda1da45b6f010e79840d6df6077ddac0a60fac980357e220d9e67'),
    9: (('0x1.bf7a08308b06dp-1', '0x1.cf7922b678392p-1', '0x1.e75aee79c8b06p-7'), '0x1.671ced82a26c8p+0', 14, True, False, None, 14, '4db6cef3d6c82b2129eaaf7da5eb3450b871f203394c89d05fe28e3c6e053f83'),
    10: (('0x1.a41670dd34405p-2', '0x1.87ac34dea28ecp-1', '0x1.39b37c73ba1aap-2'), '0x1.35117032776bfp+1', 15, True, False, None, 13, '99f1eb489f19ad7a5ce540056dfc093938230d7bb9c24d7d481902185f682c7c'),
    11: (('0x1.7a2490d078861p-2', '0x1.0ee68e60d3e5fp-2', '0x1.a6ed77c19f629p-1'), '0x1.1b3930cd3bab4p+1', 15, True, False, None, 14, 'b802dad6140857c44e624cc30236c7579a0ec84a57c17802f6d9fa42a134c217'),
    12: (('0x1.62e38630bd19cp-4', '0x1.1dcf9f5ae1106p-1', '0x1.c9327bc1921f9p-1'), '0x1.15a19d4dd9888p+1', 11, True, False, None, 11, '6e58fb4da4ab3ad3fd920340e506d456c9206aa0b81ae4414c458c5e83abe183'),
    13: (('0x1.5a012b2e900adp-1', '0x1.76d3d3a44689fp-2', '0x1.d0b57a75fa981p-2'), '0x1.423771ec8c1b3p+1', 16, True, False, None, 15, 'cf8ac607461336e5c7ef3fb53a49c95c9e8b1e84dbf4e1b276b3ea04535cba57'),
    14: (('0x1.832a321f3f834p-1', '0x1.f40a77a587f3dp-3', '0x1.ff868784edb52p-2'), '0x1.34d62e8b9a570p+1', 11, True, False, None, 11, '7ca923b1662eb1c25f5b63e3cd0e98771a5535e38965ac9fadbeefaff7efac6f'),
    15: (('0x1.9676db366be4bp-1', '0x1.b5d8a0b2420bfp-1', '0x1.590e4f18a953bp-5'), '0x1.c57efede463a4p+0', 15, True, False, None, 15, '56580fb7ac489e5fd29a7c436c4684ad9a50ec7317bf8e3215ef60c977d33f0c'),
    16: (('0x1.377594be969e3p-2', '0x1.39b5fe170f69ep-1', '0x1.2eae69f1110a3p-1'), '0x1.3ea38bf51ffcfp+1', 15, True, False, None, 14, 'd086ecc3fb42e2a8d4284e6b2c9601ead26fc8f6f29b24f21d27c3a8dded7d0a'),
    17: (('0x1.120392e7325dep-1', '0x1.372f96233332ep-1', '0x1.6fc9b188169c5p-2'), '0x1.45d6ad7f23b3ap+1', 15, True, False, None, 13, '8d8a6c02f97f6f76d914536f9e2f346c06ade26419a0e225c6da53f698a1e943'),
    18: (('0x1.01f753df084ccp-1', '0x1.74eaa47922c05p-2', '0x1.43b784a8625eep-1'), '0x1.437aa9843fc54p+1', 17, True, False, None, 16, '4d1aab84e9479a11668c3c50cd6fdca62fb603a927e93db6a1c21c5c7691c592'),
    19: (('0x1.a2a6e9242eb7ep-1', '0x1.7c85ff6b793acp-2', '0x1.1862263d19065p-2'), '0x1.1eb04b3d7a1adp+1', 17, True, False, None, 15, 'c49ea480e8c206145cefd127237ef5dc0b99c0c4a7f6528906580496cf88c6f0'),
    20: (('0x1.a3c28f753bbd1p-2', '0x1.9aa0933954937p-1', '0x1.0c7cbd480573fp-2'), '0x1.2e3204b8ebce4p+1', 15, True, False, None, 14, '001a2d422ad7c782f4146ef8cf079c7a42a18a52726c769e2fa6be494a2d9902'),
    21: (('0x1.0b7c7ddfd2997p-3', '0x1.fa8683c1698d5p-1', '0x1.12e71f04ae46ep-4'), '0x1.66cb73587749ap+0', 13, True, False, None, 12, '7e34fea1d99f07780c96aa1e3857a626ed5d29d9fe97560d2ec3ba4e216b15c0'),
    22: (('0x1.edbc24323d422p-3', '0x1.ebc8684bc67cfp-2', '0x1.8bd0e184b4422p-1'), '0x1.32ee851f54adbp+1', 10, True, False, None, 9, '7c00558664a31a5d03aef47eabfbb8b7b05152f63cc29466b68d94838ada3e83'),
    23: (('0x1.1ece6a4422f58p-4', '0x1.025d9a7e2a270p-1', '0x1.db87310575c13p-1'), '0x1.11627fd658f1dp+1', 12, True, False, None, 12, '38bb3019d7f3ce94ca014472573817917e71f7c92377fe0505cad182ac4d1858'),
    24: (('0x1.73444dc20bc2ep-6', '0x1.ef80876668fd0p-1', '0x1.2dd26ab9d8fc1p-1'), '0x1.d5d5f9913283ep-1', 10, True, False, None, 10, '62c39c09dcab91c569646ec73b72fa4a368ed5ca54476b339ebdb2579d3b22bc'),
    25: (('0x1.f4584542bc485p-4', '0x1.c26340f865620p-1', '0x1.fba1c29bbd3e5p-2'), '0x1.cb19685b6b018p+0', 11, True, False, None, 11, 'c31a507cad5260c401d54939b20993bdd1155c860acbe0600563a945c4143709'),
    26: (('0x1.bad860ec620c2p-4', '0x1.19ec335f294e2p-1', '0x1.bdc8a69a30a9ap-1'), '0x1.1af9858ffa64bp+1', 14, True, False, None, 12, '7472436ce7905180bd5df7a7a250f63a0baf9cb1202671c5f2e9342ba66115c5'),
    27: (('0x1.562a26e4440b1p-4', '0x1.5906bde8438abp-1', '0x1.aed98764335b5p-1'), '0x1.0be7d1f826af8p+1', 13, True, False, None, 13, 'fbd382d88f2956d496778743529f9434fc4bb92aebe1c52e75d42aef5dbf386f'),
    28: (('0x1.829aee3b2a95cp-2', '0x1.f287281b39efbp-1', '0x1.5d6abbe2aa24bp-5'), '0x1.00a50733cf8fep+1', 14, True, False, None, 14, '17d10d6c21a07184d366edcc3d6faa4c87cdc36700b0eb38c0befe11eef9bd98'),
    29: (('0x1.14ceb8f547526p-1', '0x1.29ea84f5059b4p-2', '0x1.5944adb537e8ep-1'), '0x1.387d4110b79e7p+1', 13, True, False, None, 12, 'b1b8d5f582625d0e20366d80b6d228db763c2581e6487862c363b3b5c72929fd'),
    30: (('0x1.028f61c0abc5ep-1', '0x1.fad442b77f89cp-1', '0x1.44724426b1a98p-7'), '0x1.0288c34f4ae17p+1', 18, True, False, None, 18, '927552e457dc6001add286c19ea61b9c1bffe47b3a8bab254dec8c67e30c7890'),
    31: (('0x1.00c49bcc8af45p-1', '0x1.fe759b519a53dp-1', '0x1.880a8281b8233p-9'), '0x1.00c40459fd30fp+1', 20, True, False, None, 20, '005cb6d970c8c6cee6bab962c13fa429d6f16700c3ee0595f990f2ab1383eb35'),
    32: (('0x1.00418938eded5p-1', '0x1.ff7ccc67378d0p-1', '0x1.05e11ceab2b96p-10'), '0x1.0041786d7781ep+1', 21, True, False, 'parent is within 0.0009999999999998899 rad of right-angled; the minimum is ill-conditioned', 22, '8181a43d23a6db073185f033b881d716f353061d07b53c7c30f37290cd8c2955'),
    33: (('0x1.b431835823d1cp-1', '0x1.f3d6f495ab6aep-1', '0x1.13eca4979f944p-8'), '0x1.70cd66c2d3b40p+0', 20, True, False, None, 19, '5862081820a5f91cad885e630e40f51b3d8afecbf0c9591d7989f0ff9c806aad'),
    34: (('0x1.a633e7d9ffa96p-3', '0x1.ffbd28523f2d6p-1', '0x1.0105240650b85p-9'), '0x1.9ec357b1592f7p+0', 19, True, False, 'parent is within 0.0009999999999998899 rad of right-angled; the minimum is ill-conditioned', 18, '433c0ce0c14c167f9cf723f3da88b6d6155f7c99251f4ec3f52963dd1ccf8fbd'),
}

# method: (exit code, stdout length, stdout SHA-256) of fagnano minimize golden-bfc
CLI_STDOUT = {
    'grid-simplex': (0, 2867, 'f259b5d67b7b4e984154cb725ad3e8caffb94671f0f453f4daf0cf5608f7777d'),
    'reflection': (0, 996, '76fdcfef018dedfd5fd36db5ccb5580e54c06d97101cf7a56a831d090414fca2'),
}
