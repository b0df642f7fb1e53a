"""Step unitaries of ``photonclock.cascade``, as ``scipy.linalg.expm`` returns them.

Entry n, for n = 2 .. 12, is exp(-i pi/2 H) with H the hopping matrix of
the n-site open chain (ones beside the diagonal): n * n little-endian
complex128 values, row-major, at byte offset 16 * sum(k * k for k in
range(2, n)).  The entries are stored zlib-compressed and
base85-encoded.  ``tests/test_photonclock.py`` rebuilds the table with
scipy and checks it bit for bit, and against the chain's closed form; a
mismatch prints the regenerated string.
"""

import base64
import zlib

STEPS = zlib.decompress(base64.b85decode(
    "c-n<pdsI#N9?xhf&5&V{9y%&Ltc)ae=&_GiBJYXZrn@ScnT8sVx=J^5H<DLx)wKo@U2>-AN+"
    "gd>Qm1Zu9Mw(lQQSo7g<iV%ocjJ+Yxe$q=laLm?fv_HKi|*e`)gTLRQ~8s2lvO%Dk_b7ZRf4"
    "+3K;&+!_Rr#nLXwOcPvYFYghVf!MPZCKXH$Gdb3v(`aTRfPwKbu`tP0>lxaL8Uw|k3fQ|FY<"
    "|Zx+{^q}b&~(Fgz_xbu++FzY-pJ1d-$NhnF0WoTQa=E`&qC_)&p}`24pNWI5yYF<v?`YCn=h"
    "PS<!t71>%1ne>y))<><`U?dIR}!`%d{+G1|!aF>t=>?j=w4g>{1ST8*i*Z_F=7-}gg(tp8Lv"
    "FI!*DesQ);@Lm(%chb+ZeNev==`Z>}_{PF~I>`KlpB@B1;YY+f?{lq-SxKp9%q3lS%5UO2Qt"
    "J%+J%#ne(~G{&xn9MrTkVzirO6Y)`HqrxWz4c`qvz&8z0}Wgu52(9&L=5u_e{M1l*_t#V!Pk"
    "h^@8_{>@Qlm{imF9=Jk7r;Io8!p?{9aEr^#3-s>(&nqzZC&fP-#S;2fnKO1<yiF`i;>aj>a3"
    "&8W1hj%T)pEb;ziQ$8K7@uaqH+k*>J+OXczIKF9qMt9%FQvz7F0ZEL`Ieg7QpNX!(=^&<dkO"
    "1p+I7t6Tv`>gFznT@^BEzYp|F?<g<h##c1pO+!!=rPekgOKe)x|mVV5cMd-hG%FM0Hot86t;"
    "%`g!17vNys<UOl`(d{h1vBK)Hpnos)A3*TCL;V2b%=9l$2=zWTx29C&C+B=Je^oIvZ4kWQ3;"
    "iwV^Rq6%&vOKSIMi3^v`;%6^-S<S8s5v1^BbVP71G}y@NGx%pM?6mk@=l~pFV`Y&yJ4pJCn{"
    "o`xoe6jo^2I`q7B~#DDpSf5t(78^nK`fuD~Eep0`j=l_m*b-&Q^Q1rb+fb#o|K~B?X^_=V7O"
    "0O#V1;lMQddNYDXD}w)y=!kOXLq|me9$~faNei0VyFA`pBR3><gEq`$rOH4>X%vEQt-F^a!Z"
    "Svp^)G4;g3U|^(&bF_CEH{b{6L2t>vfqkQgbqnuljSGG8L}^PL!c#+%}o=p}c&7wwXB+CA60"
    "e07C>YqdFJAN*|vquNKuqZT{D5An|$;L{74F9!OVx=a3%e^{8G)cD_|6Bfuh9R!aC@Ds$-D-"
    "h9d0(`HB)JubYMhG6l52n{@n0M6Qzz4=x8}Nzo9SQv~y)J;Be7(0I{_Ft1j6?9K13%l4`A$Q"
    ">6vWR@!SCcb9`djb!7~B)!Sq@Me6B_OO#1ck@~&m}iJJcqal60r`!^!V3|c+wvF&G+{ThqhU"
    "L2v|S)*z)6t2K)RAhR{-$po(6|-X1zg7L1=u3T}FAbdp=YygDnzS)5Y5X0lsr~zKK5I5D8Bg"
    "I~YG5|#s?bMUB9>01=;x9idz`r_<%Z@zH(Qt)A^d$2@U<fIpMd_2j^*866u-Hw%Xnk1@MHe0"
    "?R7a6zZ$3Am3sZDg1Nuwew3xR5T85Xv!nCJS_1#yBlE9?{^E$2QF@`me3m{I*&8mDb3MsPt?"
    "8OVe5Qa;58-b!=-WWopC$YkAoG_%e;-Z5a~eTHd`0j+4>?cjWBywQ_z?UonXeO>zYzLM5dPK"
    "xzZm~SA6vx#o}e#B*PkW+!1!AY{c92bk$fQjWhLP6F_v`yZv}ih2!DisA7uV;=#S->?3eRM{"
    "!IX%A;RBM(6<`V-vao@@=N;b^7fzSt3m2M6u%$&-fDrETJQ9>$g|3RFXn_)Qt{M9Bt<IlR;@"
    "TvW>1-?QTu1hxf*`V^37`R9tNxwoPTJfVYbP1*66v#fJfZj*-Yd2;iU5kO8)ycSgxe$(|y@p"
    "rqu6XrFY+CO1}3Ed{<nPB;|r0#^rQ!LVv{hv`tFs-N{IJcrkwN0iL3|j6SMgmmSoftMIe&Um"
    "q-dMDhFVOOFhGQshBizbQLxn-Fi@xG0fohLmFwyo6uk-#F0gJ;F~Y;OQ7IY0;tNf5S@MC({)"
    "Bq5p$p#kk2ryxhSMtyQiS%rgY<e&Dy3=Z9Llf7mY2%LL(PBjAx8mL2t??9-b*UM03Ra_$3y*"
    "9`bQg!sW6{7ar^!81$$o;87b14zFNz*CCgb%J?Jk$DLp4LrVzk$eRL-xYK{*c{O76M}a=;OR"
    "m9K>X5;_$dMWM*7u(9}gpby$F8B@EQZZh6q200gnvHTNdPzpI2vO|D1-rpF;5d4fsX;pwa<)"
    "eL(mb#e?iKJJ@&R`5Ej(Y+numzi$vf7=eEqk$p|{T7c}cMSzEYUz8*FM^*R8_qogH^`^WIAM"
    "Tg)+Ziez%@-%mD)E+ow=2qlGEYyq=HOR~c`dRfeL6uxK7xD>#CPY2IP-k72eHlXAMoEl2YjN"
    "bT~z+XpOS|4xtd@=)vqFaU|3(zH_2@@{g*y3@U2t$!_KXy<Q~O8zPGY+nuc~VgFDxIf0Q{2&"
    "iep<j6Vm!=VX{n^?Re+i<!ziR8LN{rRC*yT6epjB2U`piRvdP`}*1z56=rXq}<e9i)UOf6yg"
    "s8{6=*C*{?v~6ofy5Z+D`8J8i!dE^6&n?w`OtNpnA^>?ivnHhQySe-$rQds*!z#D4|w+ammT"
    "fq$~;{$u5!Zw<oVzW|@skU^sdWuFJUc6Xhp*!MGcyye^}_!+>jh48-|{8Neee<I{#8{L2GTh"
    "KQM;m;rNWqt75dz*rPH@pu)&bLB+Z^Zv3zr_fCN0?8KK0hk~ehd))0s$Y!zYO##NAxQPeeWU"
    "qw}C&f{HB4w5dX0bfPX*2-xI)x`M(zOf$blXFFPcEKSMrsko=N->md9SeV-xxk^D-K{Ud?>g"
    "zc|1*l$yPsr!%J2lyoj|75><A^s=%l_LBt2YlH6uYvnvvW$Lz{1fmmLGGV15hMO7MEtJ-`M8"
    "hVe^WtUjK6BYSH!!2OOgAy9=^YV)GL28(l7Wt9nZ{b3B!0hKKe({=1F&uteK*i*X3@awkCxS"
    "-&I=%6LLkIi-lg`{QW{cJ#}|ACA$_ljQSt&woIYx^YG({ey46D`Iy!}tbeaZE_FYNrScz?{x"
    "SNZ@Z^1pzl^GbYYP<qdt3H0(y>T*KRZRpe8e6iu4vxx=Se~M%>%p^%jtPZE^8Xj(<awQYTm*"
    "VV&5tAm@!oU={V)S2vR8-N>b#x@RuV-!IZrBW@bFm|J;|+l+)*tf<7ca#1C-@zbSyXrD+m%e"
    ";IFd9^P-=;}0&N?Y|t240q*zEL`!8RXyeY&f9By!A>zxDKd{8=yQ_iw*b0-S>lIp5PnSnZ(Q"
    "7GuW0v4N6nm*%KK(}v!m9xlzBo998ue*{CxzOClvG%BYrD_{EYs81ISxH-M?%U_~8S>ZzteY"
    "-6Jc^q|9TrV{3zf;{A`vJo%tc7UDOOpJv`ZXhrseHGF@YUXRU#emf96ivce-57DO|;Ufn4Li"
    "ilrZv;;n=wXBC6$W}1(e-ADA25E2KGBHZ%)yUa5x;7Jp96V*KaT9*#gLaOBu_HP8#0edF6e{"
    "#%@pu<Ap0N{_C+kRPby&FkmpR;N9xGFns{qupVc7q5PdQc|3-ozuzhd^@R}q0n%qBEdHdcTx"
    "!=TaUra~lSql2tA$}wI=|lWG3H%U`@S6*GvHP^H`}hCeU@&v!K2}HOA@{`|#BX;XKMlw}(1*"
    "P3Lw?_=1V3Cw?$a9N_n-d(s13_Q"))
